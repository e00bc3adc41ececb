//! Cross-crate fault-injection invariants: the fail-closed property (a
//! latched core never yields a clean guest-visible reading), replayable
//! fault schedules, the zero-draw guarantee of the inert plan, and
//! crash-safe fuzzing through the public facade.
//!
//! This binary is also the CI fault-matrix pass: `scripts/check.sh` runs
//! it a second time under `AEGIS_FAULTS=smoke`, so every test here either
//! passes an explicit [`FaultPlan`] or guards on the ambient environment.

use aegis::faults::FaultPlan;
use aegis::fuzzer::{EventFuzzer, FuzzerConfig};
use aegis::isa::{IsaCatalog, Vendor};
use aegis::microarch::{named, Core, CounterConfig, InterferenceConfig, MicroArch, OriginFilter};
use aegis::par::ArtifactCache;
use aegis::sev::{Host, PlanSource, SevMode};
use aegis::workloads::{MixSpec, Segment, WorkloadPlan};
use proptest::prelude::*;

/// A steady open-ended workload: the clean twin's counter readings are
/// nonzero in every interval, so "reads zero" and "reads clean" are
/// mutually exclusive observations.
fn forever_plan(uops_per_us: f64) -> WorkloadPlan {
    let mut spec = MixSpec::idle();
    spec.uops_per_us = uops_per_us;
    let mut p = WorkloadPlan::new();
    p.push(Segment::new(u64::MAX / 2, spec.build()));
    p
}

/// One SNP guest pinned to a core, with an optional obfuscation injector
/// (the component the fault plan's stall/detach sites target).
fn guest_host(plan: FaultPlan, host_seed: u64, app_rate: f64, inject: bool) -> (Host, usize) {
    let mut host = Host::with_faults(MicroArch::AmdEpyc7252, 2, host_seed, plan);
    let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
    host.attach_app(vm, 0, Box::new(PlanSource::new(forever_plan(app_rate))))
        .unwrap();
    if inject {
        host.attach_injector(vm, 0, Box::new(PlanSource::new(forever_plan(60.0))))
            .unwrap();
    }
    let core = host.core_of(vm, 0).unwrap();
    (host, core)
}

#[test]
fn detached_injector_blinds_the_guest_visible_trace() {
    // A permanently detached injector must latch the core fail-closed at
    // the watchdog horizon and keep it there: after the first (partially
    // clean) sampling window, every guest-visible window reads exactly
    // zero — never the clean value.
    let plan = FaultPlan {
        seed: 11,
        injector_detach: 1.0,
        ..FaultPlan::none()
    };
    let (mut host, core) = guest_host(plan, 5, 300.0, true);
    let ev = host
        .core(core)
        .catalog()
        .lookup(named::RETIRED_UOPS)
        .unwrap();
    let faulted = host
        .record_trace(core, &[ev], OriginFilter::Any, 1_000_000, 30_000_000)
        .unwrap();
    assert!(host.core_fail_closed(core), "detach must latch the core");

    let (mut twin, twin_core) = guest_host(FaultPlan::none(), 5, 300.0, false);
    let clean = twin
        .record_trace(twin_core, &[ev], OriginFilter::Any, 1_000_000, 30_000_000)
        .unwrap();
    assert!(!twin.core_fail_closed(twin_core));

    assert_eq!(faulted.len(), clean.len());
    for (w, (&f, &c)) in faulted.row(0).iter().zip(clean.row(0)).enumerate() {
        assert!(c > 0.0, "clean twin window {w} must observe activity");
        if w >= 1 {
            assert_eq!(f, 0.0, "latched window {w} must read zero, got {f}");
            assert_ne!(f, c, "latched window {w} equals the clean reading");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fail-closed invariant under randomized fault schedules: while
    /// a core is latched, every guest-visible counter read is exactly
    /// zero and therefore never equals the clean twin's (nonzero)
    /// reading. Schedules draw stall probability, episode length, and an
    /// occasional permanent detach; episodes at least as long as the
    /// watchdog horizon guarantee each one latches.
    #[test]
    fn latched_reads_never_equal_the_clean_twin(
        fault_seed in 1u64..1_000,
        host_seed in 1u64..50,
        stall_p in 0.05f64..0.5,
        stall_ticks in 4u32..24,
        detach_p in 0.0f64..0.05,
    ) {
        let plan = FaultPlan {
            seed: fault_seed,
            injector_stall: stall_p,
            stall_ticks,
            injector_detach: detach_p,
            ..FaultPlan::none()
        };
        let (mut faulted, fc) = guest_host(plan, host_seed, 300.0, true);
        let (mut clean, cc) = guest_host(FaultPlan::none(), host_seed, 300.0, false);
        let ev = faulted.core(fc).catalog().lookup(named::RETIRED_UOPS).unwrap();
        let cfg = CounterConfig { event: ev, filter: OriginFilter::Any };
        faulted.core_mut(fc).pmu_mut().program(0, cfg).unwrap();
        clean.core_mut(cc).pmu_mut().program(0, cfg).unwrap();

        let mut latched_ticks = 0u32;
        for t in 0..400u32 {
            faulted.tick(|_, _, _| {});
            clean.tick(|_, _, _| {});
            let fv = faulted.core(fc).pmu().rdpmc(0).unwrap();
            let cv = clean.core(cc).pmu().rdpmc(0).unwrap();
            prop_assert!(cv > 0, "clean twin must observe activity at tick {}", t);
            if faulted.core_fail_closed(fc) {
                latched_ticks += 1;
                prop_assert_eq!(fv, 0u64, "latched read must be zero at tick {}", t);
                prop_assert!(fv != cv, "latched read equals the clean value at tick {}", t);
            }
        }
        prop_assert!(
            latched_ticks > 0,
            "schedule never latched — the property was checked vacuously"
        );
    }
}

#[test]
fn fault_schedules_replay_bit_identically() {
    // The whole point of seed-keyed streams: the same plan replays the
    // same corruption, steal, stall, and jitter schedule bit-for-bit; a
    // different fault seed yields a different schedule against the same
    // workload and host seed.
    let plan = FaultPlan {
        seed: 77,
        counter_corrupt: 0.1,
        counter_saturate: 0.05,
        pmc_program_fail: 0.1,
        slot_steal: 0.05,
        injector_stall: 0.1,
        stall_ticks: 6,
        tick_jitter: 0.2,
        ..FaultPlan::none()
    };
    let collect = |plan: FaultPlan| {
        let (mut host, core) = guest_host(plan, 9, 300.0, true);
        let ev = host
            .core(core)
            .catalog()
            .lookup(named::RETIRED_UOPS)
            .unwrap();
        host.record_trace(core, &[ev], OriginFilter::Any, 1_000_000, 20_000_000)
            .unwrap()
    };
    assert_eq!(collect(plan), collect(plan));
    assert_ne!(
        collect(FaultPlan { seed: 78, ..plan }),
        collect(plan),
        "a different fault seed must produce a different schedule"
    );
}

#[test]
fn inert_plan_is_bit_identical_to_the_default_host() {
    // FaultPlan::none() must cost zero draws: a host built with the
    // inert plan produces the same trace as one built with no fault
    // layer at all. Guarded on the ambient environment because the CI
    // fault-matrix pass re-runs this binary under AEGIS_FAULTS=smoke,
    // where Host::new picks up the smoke plan by design.
    if std::env::var_os("AEGIS_FAULTS").is_some() {
        return;
    }
    let record = |mut host: Host| {
        let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
        host.attach_app(vm, 0, Box::new(PlanSource::new(forever_plan(250.0))))
            .unwrap();
        let core = host.core_of(vm, 0).unwrap();
        let ev = host
            .core(core)
            .catalog()
            .lookup(named::RETIRED_UOPS)
            .unwrap();
        host.record_trace(core, &[ev], OriginFilter::Any, 1_000_000, 20_000_000)
            .unwrap()
    };
    let plain = record(Host::new(MicroArch::AmdEpyc7252, 2, 4));
    let inert = record(Host::with_faults(
        MicroArch::AmdEpyc7252,
        2,
        4,
        FaultPlan::none(),
    ));
    assert_eq!(plain, inert);
}

#[test]
fn killed_fuzz_run_resumes_bit_identically_through_the_facade() {
    // Crash-safe fuzzing end-to-end via the public re-exports: a run
    // killed mid-recording by the kill_after site resumes from its
    // persisted checkpoint and produces the same FuzzOutcome as an
    // uninterrupted run under the same (active) plan.
    let cfg = FuzzerConfig {
        candidates_per_event: 96,
        confirm_reps: 10,
        ..FuzzerConfig::default()
    };
    let run_with = |plan: FaultPlan, dir: &std::path::Path| {
        let catalog = IsaCatalog::synthetic(Vendor::Amd, 7);
        let mut core = Core::new(MicroArch::AmdEpyc7252, 7);
        core.set_interference(InterferenceConfig::isolated());
        let ev = core.catalog().lookup(named::RETIRED_UOPS).unwrap();
        let cache = ArtifactCache::with_faults(dir, FaultPlan::none());
        let fuzzer = EventFuzzer::with_faults(cfg, cache, plan);
        fuzzer.run(&catalog, &mut core, &[ev])
    };
    let tmp = |tag: &str| {
        let d = std::env::temp_dir().join(format!("aegis-fi-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    };
    // An active but fuzzer-irrelevant plan keeps the reference run on the
    // same checkpointed, sim-timed code path without ever killing it.
    let base = FaultPlan {
        seed: 2,
        tick_jitter: 0.5,
        ..FaultPlan::none()
    };
    let dir_ref = tmp("ref");
    let reference = run_with(base, &dir_ref);

    let kill_plan = FaultPlan {
        kill_after: 64,
        ..base
    };
    let dir_kill = tmp("kill");
    let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_with(kill_plan, &dir_kill)
    }));
    assert!(killed.is_err(), "the injected kill must abort the run");
    let resumed = run_with(kill_plan, &dir_kill);
    assert_eq!(reference, resumed);

    let _ = std::fs::remove_dir_all(&dir_ref);
    let _ = std::fs::remove_dir_all(&dir_kill);
}
