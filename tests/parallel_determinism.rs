//! The determinism contract of the parallel execution layer: results are
//! bit-identical regardless of the worker count, and memoized artifacts
//! are exact.
//!
//! All tests that touch the process-wide thread configuration serialize
//! through [`THREAD_KNOB`] — the contract itself guarantees every *other*
//! test is insensitive to the knob. A test that panics while holding it
//! does not fail the others: they take the poisoned guard.

use aegis::fuzzer::{EventFuzzer, FuzzerConfig};
use aegis::microarch::{named, Core, InterferenceConfig, MicroArch};
use aegis::par::{derive_seed, set_threads, ArtifactCache};
use aegis::sev::{Host, PlanSource, SevMode};
use aegis::workloads::{DnnZoo, SecretApp, WebsiteCatalog};
use aegis::{CollectConfig, Collector};
use aegis_isa::{IsaCatalog, Vendor};
use std::sync::{Mutex, PoisonError};

static THREAD_KNOB: Mutex<()> = Mutex::new(());

fn small_collect() -> CollectConfig {
    CollectConfig {
        traces_per_secret: 3,
        window_ns: 120_000_000,
        interval_ns: 2_000_000,
        pool: 20,
        seed: 11,
        per_secret_noise: false,
    }
}

fn collect_with_threads(n: usize) -> aegis::attack::Dataset {
    set_threads(n);
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 5);
    let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
    let core = host.core_of(vm, 0).unwrap();
    let app = WebsiteCatalog::new(3);
    let events = host.core(core).catalog().attack_events();
    Collector::for_traces(small_collect())
        .dataset(&host, vm, 0, &app, &events, None)
        .unwrap()
}

#[test]
fn collector_dataset_is_bit_identical_for_1_and_8_workers() {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(PoisonError::into_inner);
    let serial = collect_with_threads(1);
    let wide = collect_with_threads(8);
    assert!(!serial.samples.is_empty());
    assert_eq!(serial, wide, "worker count leaked into the dataset");
}

#[test]
fn collector_dataset_is_bit_identical_with_full_observability() {
    // The observability layer is write-only from the simulation's point
    // of view: AEGIS_OBS=full (spans, metrics, JSONL sink) must not
    // perturb parallel results.
    let _guard = THREAD_KNOB.lock().unwrap_or_else(PoisonError::into_inner);
    let dir =
        std::env::temp_dir().join(format!("aegis-par-obs-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("AEGIS_OBS_DIR", &dir);
    aegis::obs::reset();

    aegis::obs::set_level(Some(aegis::obs::ObsLevel::Off));
    let quiet = collect_with_threads(8);
    aegis::obs::set_level(Some(aegis::obs::ObsLevel::Full));
    let observed = collect_with_threads(8);

    aegis::obs::set_level(None);
    aegis::obs::reset();
    std::env::remove_var("AEGIS_OBS_DIR");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(quiet, observed, "observability leaked into the dataset");
}

#[test]
fn fuzzing_is_bit_identical_for_1_and_8_workers() {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(PoisonError::into_inner);
    let fuzz = |threads: usize| {
        set_threads(threads);
        let catalog = IsaCatalog::synthetic(Vendor::Amd, 7);
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
                candidates_per_event: 80,
                confirm_reps: 10,
                ..FuzzerConfig::default()
            },
            ArtifactCache::disabled(),
        );
        fuzzer.run(&catalog, &mut core, &events)
    };
    let serial = fuzz(1);
    let wide = fuzz(8);
    // Wall-clock timings in the report legitimately differ; the findings
    // must not.
    assert_eq!(serial.per_event, wide.per_event);
    assert_eq!(serial.report.gadgets_tested, wide.report.gadgets_tested);
}

#[test]
fn vectorized_fuzzing_is_bit_identical_under_obs_cache_and_workers() {
    // The vectorized measurement plane (shared candidate pool, recorded
    // traces, dense-kernel evaluation) must keep the determinism
    // contract under every operational knob at once: worker count,
    // AEGIS_OBS=full, and the artifact cache on or off.
    let _guard = THREAD_KNOB.lock().unwrap_or_else(PoisonError::into_inner);
    let cache_dir = std::env::temp_dir().join(format!(
        "aegis-vectorized-determinism-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let fuzz = |threads: usize, cache: ArtifactCache| {
        set_threads(threads);
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
                candidates_per_event: 80,
                confirm_reps: 10,
                ..FuzzerConfig::default()
            },
            cache,
        );
        fuzzer.run(&catalog, &mut core, &events)
    };

    aegis::obs::set_level(Some(aegis::obs::ObsLevel::Off));
    let baseline = fuzz(1, ArtifactCache::disabled());
    aegis::obs::set_level(Some(aegis::obs::ObsLevel::Full));
    let observed_wide = fuzz(8, ArtifactCache::disabled());
    let cache_miss = fuzz(4, ArtifactCache::new(&cache_dir));
    let cache_hit = fuzz(2, ArtifactCache::new(&cache_dir));
    aegis::obs::set_level(None);
    aegis::obs::reset();
    let _ = std::fs::remove_dir_all(&cache_dir);

    assert!(
        baseline.per_event.iter().any(|e| !e.confirmed.is_empty()),
        "test must exercise confirmed gadgets"
    );
    for other in [&observed_wide, &cache_miss, &cache_hit] {
        assert_eq!(baseline.per_event, other.per_event);
        assert_eq!(baseline.report.gadgets_tested, other.report.gadgets_tested);
    }
}

#[test]
fn batched_core_recording_is_invariant_to_workers_and_lane_width() {
    // The batched struct-of-arrays engine keys every lane's noise by its
    // session seed alone, so one set of sessions must record identical
    // traces no matter how it is partitioned into CoreBatch blocks or
    // how many workers drive the blocks — including ragged tails where
    // the last block is narrower than the lane width.
    use aegis::fuzzer::{BatchTraceRecorder, RecordedTrace};
    use aegis::microarch::CoreBatch;
    use aegis::par::Executor;
    use aegis_isa::{InstrId, WellKnown};

    let _guard = THREAD_KNOB.lock().unwrap_or_else(PoisonError::into_inner);
    let catalog = IsaCatalog::synthetic(Vendor::Amd, 7);
    let mut template = Core::new(MicroArch::AmdEpyc7252, 7);
    template.set_interference(InterferenceConfig::isolated());
    let template = template; // freeze: every batch forks from one state
    let seq: Vec<InstrId> = vec![WellKnown::Clflush.id(), WellKnown::Load64.id()];
    const SESSIONS: u64 = 24;
    let seeds: Vec<u64> = (0..SESSIONS).map(|i| derive_seed(3, 0x5e55, i)).collect();

    let record = |threads: usize, lane_width: usize| -> Vec<RecordedTrace> {
        set_threads(threads);
        let blocks: Vec<Vec<u64>> = seeds.chunks(lane_width).map(<[u64]>::to_vec).collect();
        let template = &template;
        let catalog = &catalog;
        let seq = &seq;
        let out: Vec<Vec<RecordedTrace>> = Executor::from_config().map_with(
            blocks,
            |_worker| None::<CoreBatch>,
            |arena, _unit, block| {
                match arena {
                    Some(batch) => batch.reset_from_core_state(template, block.len()),
                    None => *arena = Some(CoreBatch::from_core_state(template, block.len())),
                }
                let batch = arena.as_mut().expect("arena just filled");
                for (lane, &seed) in block.iter().enumerate() {
                    batch.reseed(lane, seed);
                }
                let seqs: Vec<&[InstrId]> = vec![seq.as_slice(); block.len()];
                let mut rec = BatchTraceRecorder::begin(batch, catalog);
                for _ in 0..5 {
                    rec.window(&seqs);
                }
                rec.finish()
            },
        );
        out.into_iter().flatten().collect()
    };

    let baseline = record(1, 1);
    assert_eq!(baseline.len(), SESSIONS as usize);
    for (threads, width) in [(1, 24), (4, 8), (8, 5), (2, 32), (8, 1)] {
        assert_eq!(
            baseline,
            record(threads, width),
            "threads={threads} lane_width={width} leaked into the traces"
        );
    }
}

#[test]
fn cleanup_cache_hit_is_exact() {
    let dir = std::env::temp_dir().join(format!("aegis-cleanup-cache-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run_once = || {
        let catalog = IsaCatalog::synthetic(Vendor::Amd, 7);
        let mut core = Core::new(MicroArch::AmdEpyc7252, 7);
        core.set_interference(InterferenceConfig::isolated());
        let ev = core.catalog().lookup(named::RETIRED_UOPS).unwrap();
        let fuzzer = EventFuzzer::with_cache(
            FuzzerConfig {
                candidates_per_event: 40,
                confirm_reps: 10,
                ..FuzzerConfig::default()
            },
            ArtifactCache::new(&dir),
        );
        fuzzer.run(&catalog, &mut core, &[ev])
    };
    let miss = run_once();
    // The second run must hit the cache: the stored cleanup (including
    // its recorded wall time) is returned verbatim, which an actual
    // recomputation would virtually never reproduce bit-for-bit.
    let hit = run_once();
    assert_eq!(miss.report.cleanup_seconds, hit.report.cleanup_seconds);
    assert_eq!(
        miss.report.usable_instructions,
        hit.report.usable_instructions
    );
    assert_eq!(miss.per_event, hit.per_event);
    let cached: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir was created")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("cleanup-"))
        .collect();
    assert_eq!(cached.len(), 1, "exactly one cleanup artifact");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_trace_forks_leave_the_original_host_pristine() {
    // Collector::dataset must not leak replica state (clock, apps, PMU)
    // back into the caller's host: two consecutive collections with the
    // same config are identical.
    let _guard = THREAD_KNOB.lock().unwrap_or_else(PoisonError::into_inner);
    set_threads(2);
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 5);
    let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
    let core = host.core_of(vm, 0).unwrap();
    let app = WebsiteCatalog::new(3);
    let events = host.core(core).catalog().attack_events();
    let collector = Collector::for_traces(small_collect());
    let first = collector
        .dataset(&host, vm, 0, &app, &events, None)
        .unwrap();
    let second = collector
        .dataset(&host, vm, 0, &app, &events, None)
        .unwrap();
    assert_eq!(first, second);
}

#[test]
fn fork_detached_drops_attachments_but_keeps_the_testbed() {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 5);
    let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
    let core = host.core_of(vm, 0).unwrap();
    let app = WebsiteCatalog::new(3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    host.attach_app(
        vm,
        0,
        Box::new(PlanSource::new(app.sample_plan(0, &mut rng))),
    )
    .unwrap();
    let fork = host.fork_detached();
    // The fork sees the same topology and can record immediately...
    assert_eq!(fork.core_of(vm, 0).unwrap(), core);
    // ...but carries no attached activity from the original.
    let events = host.core(core).catalog().attack_events();
    let mut fork2 = fork.fork_detached();
    let trace = fork2
        .record_trace(
            &[core],
            &events,
            aegis::microarch::OriginFilter::GuestOnly(vm.0),
            10_000_000,
            50_000_000,
        )
        .unwrap()
        .remove(0);
    assert!(
        trace.totals().iter().all(|&t| t == 0.0),
        "detached fork still runs guest activity: {:?}",
        trace.totals()
    );
}

#[test]
fn sweep_grid_is_bit_identical_under_workers_obs_and_cache() {
    // The Fig. 9 (ε, mechanism) grid must produce the same accuracy
    // table no matter how it is executed: serial or wide, quiet or
    // under AEGIS_OBS=full, recomputed cold or replayed from a warm
    // artifact cache. Cell seeds derive from (ε, mechanism), never from
    // grid position or worker id, so every combination is one result.
    use aegis::fuzzer::Gadget;
    use aegis::obfuscator::{GadgetStack, ObfuscatorConfig};
    use aegis::sweep::{run_sweep, SweepConfig};
    use aegis::workloads::KeystrokeApp;
    use aegis::{ClassifierAttack, DefenseDeployment, MechanismChoice};
    use aegis_isa::WellKnown;

    let _guard = THREAD_KNOB.lock().unwrap_or_else(PoisonError::into_inner);
    let cache_dir = std::env::temp_dir().join(format!(
        "aegis-sweep-grid-determinism-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 3);
    let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
    let core = host.core_of(vm, 0).unwrap();
    let events = host.core(core).catalog().attack_events().to_vec();
    let app = KeystrokeApp::with_window(300_000_000);
    let collect = CollectConfig {
        traces_per_secret: 3,
        window_ns: 300_000_000,
        interval_ns: 2_000_000,
        pool: 25,
        seed: 7,
        per_secret_noise: false,
    };
    let deployment = DefenseDeployment {
        stack: GadgetStack::calibrate(
            &IsaCatalog::synthetic(Vendor::Amd, 7),
            &mut {
                let mut c = Core::new(MicroArch::AmdEpyc7252, 9);
                c.set_interference(InterferenceConfig::isolated());
                c
            },
            vec![Gadget::new(WellKnown::Clflush.id(), WellKnown::Load64.id())],
            64,
        ),
        mechanism: MechanismChoice::Laplace { epsilon: 0.25 },
        obfuscator: ObfuscatorConfig::default(),
    };
    let cfg = SweepConfig {
        eps_grid: vec![0.25, 4.0],
        seed: 11,
        host_seed: 3,
        victim_per_secret: 2,
        robust_per_secret: 2,
    };
    let run = |threads: usize, cache: &ArtifactCache| {
        set_threads(threads);
        run_sweep::<ClassifierAttack>(
            &host,
            vm,
            0,
            &app,
            &events,
            &collect,
            &deployment,
            None,
            &cfg,
            cache,
        )
        .unwrap()
    };

    aegis::obs::set_level(Some(aegis::obs::ObsLevel::Off));
    let serial = run(1, &ArtifactCache::disabled());
    let wide = run(4, &ArtifactCache::disabled());
    aegis::obs::set_level(Some(aegis::obs::ObsLevel::Full));
    // The exact hit and miss counts are defined without torn writes, so
    // this cache states a fault-free plan; the host keeps the ambient one.
    let cache = ArtifactCache::with_faults(&cache_dir, aegis::FaultPlan::none());
    let cold = run(4, &cache);
    let warm = run(1, &cache);
    aegis::obs::set_level(None);
    aegis::obs::reset();
    let _ = std::fs::remove_dir_all(&cache_dir);

    assert_eq!(
        serial.cells, wide.cells,
        "worker count leaked into the grid"
    );
    assert_eq!(
        serial.cells, cold.cells,
        "obs or caching leaked into the grid"
    );
    assert_eq!(
        serial.cells, warm.cells,
        "warm replay diverged from recompute"
    );
    assert_eq!(cold.cache_hits, 0, "cold run on a fresh cache");
    assert_eq!(warm.cache_misses, 0, "warm run must replay every artifact");
    assert_eq!(warm.cache_hits, cold.cache_misses);
}

use rand::SeedableRng;

mod seed_collisions {
    use super::derive_seed;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn derived_seeds_never_collide_within_a_batch(
            base in 0u64..=u64::MAX,
            units in 2usize..512,
        ) {
            // Two streams sharing one base seed: every (stream, unit)
            // pair must map to a distinct RNG seed, or parallel units
            // would silently sample correlated noise.
            let mut seen = std::collections::HashSet::new();
            for stream in [0x01u64, 0x02, 0x03, 0x04, 0x10] {
                for unit in 0..units as u64 {
                    prop_assert!(
                        seen.insert(derive_seed(base, stream, unit)),
                        "collision at stream {stream:#x} unit {unit}"
                    );
                }
            }
        }
    }
}

#[test]
fn profiler_is_bit_identical_for_1_2_and_8_workers_and_full_observability() {
    // Warm-up and ranking probes run as lanes on the worker pool, and
    // ranking scores its events there; their outputs and the template
    // host they leave behind must not depend on the worker count or on
    // AEGIS_OBS. The dnn zoo samples its probes over their spans only
    // (`SecretApp::sample_span`), the website catalog through the
    // default.
    use aegis::profiler::{rank_events, warmup_profile, RankConfig, WarmupConfig};
    let _guard = THREAD_KNOB.lock().unwrap_or_else(PoisonError::into_inner);
    let apps: [Box<dyn SecretApp>; 2] =
        [Box::new(WebsiteCatalog::new(3)), Box::new(DnnZoo::new(3))];
    let profile = |threads: usize| {
        set_threads(threads);
        let profile_app = |app: &dyn SecretApp| {
            let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 5);
            let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
            let warm_cfg = WarmupConfig {
                probe_ns: 2_000_000,
                passes: 2,
                ..WarmupConfig::default()
            };
            let warm = warmup_profile(&mut host, vm, 0, app, &warm_cfg).unwrap();
            let rank_cfg = RankConfig {
                reps_per_secret: 1,
                window_ns: 20_000_000,
                interval_ns: 5_000_000,
                seed: 3,
            };
            let ranks =
                rank_events(&mut host, vm, 0, app, &warm.vulnerable[..12], &rank_cfg).unwrap();
            let state = (
                host.clock_ns(),
                host.core(0).cycles(),
                host.vcpu_stats(vm, 0).unwrap(),
            );
            (warm, ranks, state)
        };
        apps.iter()
            .map(|app| profile_app(app.as_ref()))
            .collect::<Vec<_>>()
    };
    aegis::obs::set_level(Some(aegis::obs::ObsLevel::Off));
    let serial = profile(1);
    let pair = profile(2);
    aegis::obs::set_level(Some(aegis::obs::ObsLevel::Full));
    let observed_wide = profile(8);
    aegis::obs::set_level(None);
    aegis::obs::reset();
    for (app, (_, ranks, _)) in apps.iter().zip(&serial) {
        assert!(
            ranks.iter().any(|r| r.mi_bits > 0.0),
            "{}: ranking must see leakage",
            app.name()
        );
    }
    assert_eq!(serial, pair, "worker count leaked into the profile");
    assert_eq!(
        serial, observed_wide,
        "workers or observability leaked into the profile"
    );
}
