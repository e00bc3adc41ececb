//! Fleet-plane contracts: seeded chaos storms with fail-closed
//! evacuation, clean-twin bit-equality of crashed and surviving hosts,
//! ε-ledger carry (and pin-protection) across hosts, quarantine on torn
//! records, worker-count determinism, and checkpoint-resume of the
//! (policy × storm seed) sweep.
//!
//! This binary is part of the CI fault matrix: `scripts/check.sh`
//! re-runs it under `AEGIS_FAULTS=smoke`, so every test passes explicit
//! [`FaultPlan`]s into the fleets it builds (cells and fleets never read
//! the ambient plan; only `ArtifactCache` checkpoint loops do).

use aegis::fuzzer::FuzzerConfig;
use aegis::microarch::{named, MicroArch, OriginFilter};
use aegis::par::{set_threads, ArtifactCache};
use aegis::profiler::{RankConfig, WarmupConfig};
use aegis::sev::{Host, SevMode};
use aegis::workloads::{KeystrokeApp, SecretApp};
use aegis::{
    fleet_sweep, storm_schedule, AegisConfig, AegisPipeline, DefensePlan, FaultPlan, FleetConfig,
    FleetReport, FleetSupervisor, FleetSweepConfig, FleetTopology, HostState, MechanismChoice,
    PlacementPolicy, ServiceConfig, TenantStatus,
};
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};

static THREAD_KNOB: Mutex<()> = Mutex::new(());

fn quick_cfg(faults: FaultPlan) -> AegisConfig {
    AegisConfig {
        warmup: WarmupConfig {
            probe_ns: 2_000_000,
            passes: 2,
            ..WarmupConfig::default()
        },
        rank: RankConfig {
            reps_per_secret: 2,
            window_ns: 50_000_000,
            ..RankConfig::default()
        },
        fuzzer: FuzzerConfig {
            candidates_per_event: 60,
            confirm_reps: 8,
            ..FuzzerConfig::default()
        },
        fuzz_top_events: 4,
        isa_seed: 7,
        mechanism: MechanismChoice::Laplace { epsilon: 1.0 },
        faults: Some(faults),
        ..AegisConfig::default()
    }
}

/// One plan, profiled once per test binary: the fleet contracts under
/// test do not depend on *which* calibrated plan is deployed.
fn shared_plan() -> &'static DefensePlan {
    static PLAN: OnceLock<DefensePlan> = OnceLock::new();
    PLAN.get_or_init(|| {
        let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 7);
        let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
        let app = KeystrokeApp::with_window(300_000_000);
        AegisPipeline::offline(&mut host, vm, 0, &app, &quick_cfg(FaultPlan::none())).unwrap()
    })
}

fn app() -> KeystrokeApp {
    KeystrokeApp::with_window(300_000_000)
}

fn fleet_config(
    topology: FleetTopology,
    policy: PlacementPolicy,
    tenants: usize,
    faults: FaultPlan,
    seed: u64,
) -> FleetConfig {
    FleetConfig::new(ServiceConfig::new(quick_cfg(faults)), topology, policy, tenants).seed(seed)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("aegis-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ── Family 1: the chaos storm ───────────────────────────────────────────

/// The acceptance scenario: 64 tenants on 8 hosts survive a seeded
/// chaos storm with every affected tenant either evacuated (ε account
/// intact, destination latched until demonstrated health) or latched
/// fail-closed where it died.
#[test]
fn storm_leaves_every_tenant_evacuated_or_latched() {
    let topo = FleetTopology {
        hosts: 8,
        sockets_per_host: 1,
        pairs_per_socket: 5,
    };
    let storm = FaultPlan {
        seed: 0xF1EE7,
        host_crash: 0.05,
        host_degrade: 0.1,
        ..FaultPlan::none()
    };
    let (steps, step_ns) = (6, 2_000_000);
    let mut fleet = FleetSupervisor::deploy(
        fleet_config(topo, PlacementPolicy::Packed, 64, storm, 42),
        shared_plan(),
        &app(),
    )
    .unwrap();
    fleet.run_storm(steps, step_ns);
    let schedule = storm_schedule(&storm, topo.hosts, steps);
    let mut crash_hosts: Vec<usize> = schedule
        .iter()
        .filter(|h| h.crash)
        .map(|h| h.host)
        .collect();
    crash_hosts.sort_unstable();
    crash_hosts.dedup();
    assert!(
        !crash_hosts.is_empty(),
        "this storm seed must crash at least one host"
    );

    let report = fleet.report();
    assert_eq!(report.crashes as usize, crash_hosts.len());
    assert_eq!(
        report.evacuations,
        report.tenants.iter().map(|t| t.evacuations as u64).sum::<u64>()
    );
    assert_eq!(report.quarantined, 0, "no ledger faults in this storm");

    // A dead host never hands out a clean counter: every core latched.
    for &h in &crash_hosts {
        assert_eq!(fleet.host_state(h), HostState::Crashed);
        for c in 0..fleet.host(h).n_cores() {
            assert!(
                fleet.host(h).core_fail_closed(c),
                "host {h} core {c} unlatched after crash"
            );
        }
    }

    for (t, outcome) in report.tenants.iter().enumerate() {
        match outcome.status {
            TenantStatus::Protected => {
                let (h, _) = fleet.tenant_home(t).expect("protected tenants have a home");
                assert_ne!(
                    fleet.host_state(h),
                    HostState::Crashed,
                    "{} reported protected on a dead host",
                    outcome.tenant
                );
                if outcome.evacuations > 0 {
                    // ε carry: attach epoch + one adoption epoch minimum.
                    assert!(
                        outcome.epsilon_spent >= 2.0,
                        "{} evacuated but only ε={} charged",
                        outcome.tenant,
                        outcome.epsilon_spent
                    );
                }
            }
            // Terminal anywhere is fail-closed: its last core is latched
            // (on a crashed host every core is; on a live one the sticky
            // session latch holds).
            TenantStatus::Failed | TenantStatus::Exhausted => {
                let (h, c) = fleet.tenant_home(t).expect("terminal tenants keep their host");
                assert!(
                    fleet.host(h).core_fail_closed(c),
                    "{} terminal but core {c} on host {h} reads clean",
                    outcome.tenant
                );
            }
            // Stranded tenants died with their host — covered by the
            // every-core-latched sweep above.
            TenantStatus::Stranded => assert!(outcome.host.is_none()),
            TenantStatus::Quarantined => unreachable!("asserted zero above"),
        }
        assert!(outcome.epsilon_spent >= 1.0, "every tenant paid its attach epoch");
    }
    assert!(
        report.tenants.iter().any(|t| t.evacuations > 0),
        "the storm must actually evacuate someone"
    );
}

/// Mid-evacuation fail-closure, step by step: the destination core is
/// latched from adoption until the redeployed daemon demonstrates
/// health, and only then does the session read healthy again.
#[test]
fn evacuated_tenants_stay_latched_until_demonstrated_health() {
    let topo = FleetTopology {
        hosts: 4,
        sockets_per_host: 1,
        pairs_per_socket: 3,
    };
    let mut fleet = FleetSupervisor::deploy(
        fleet_config(topo, PlacementPolicy::Spread, 8, FaultPlan::none(), 9),
        shared_plan(),
        &app(),
    )
    .unwrap();
    fleet.run(4_000_000);
    let crashed: Vec<usize> = (0..8)
        .filter(|&t| fleet.tenant_home(t).unwrap().0 == 0)
        .collect();
    assert!(!crashed.is_empty(), "spread must place someone on host 0");
    fleet.inject_host_crash(0);

    // Before any further fleet time: every evacuee sits latched on its
    // destination — no window where a clean counter was readable.
    for &t in &crashed {
        let (h, c) = fleet.tenant_home(t).expect("evacuees are re-placed");
        assert_ne!(h, 0, "tenant {t} re-placed onto the dead host");
        assert!(
            fleet.host(h).core_fail_closed(c),
            "tenant {t} destination core unlatched before demonstrated health"
        );
    }

    // The destination watchdog releases the latch only after the new
    // daemon injects healthily.
    fleet.run(20_000_000);
    let report = fleet.report();
    for &t in &crashed {
        assert_eq!(
            report.tenants[t].status,
            TenantStatus::Protected,
            "tenant {t} did not recover on its destination"
        );
        let (h, c) = fleet.tenant_home(t).unwrap();
        assert!(
            !fleet.host(h).core_fail_closed(c),
            "tenant {t} still latched after demonstrated health"
        );
        assert!(report.tenants[t].epsilon_spent >= 2.0);
    }
}

/// Clean-twin bit-equality: after a crash, the dead host's counters
/// read exactly zero in every window (never the clean twin's values),
/// and *unaffected* hosts remain bit-identical to the twin fleet's.
#[test]
fn crashed_host_reads_zero_and_unaffected_hosts_match_the_clean_twin() {
    let topo = FleetTopology {
        hosts: 4,
        sockets_per_host: 1,
        pairs_per_socket: 2,
    };
    let build = || {
        FleetSupervisor::deploy(
            fleet_config(topo, PlacementPolicy::Spread, 4, FaultPlan::none(), 5),
            shared_plan(),
            &app(),
        )
        .unwrap()
    };
    let mut fleet = build();
    let mut twin = build();
    fleet.run(2_000_000);
    twin.run(2_000_000);
    let (crashed_host, victim_core) = twin.tenant_home(0).unwrap();
    assert_eq!(crashed_host, 0, "spread places tenant 0 on host 0");
    fleet.inject_host_crash(0);
    let dest = fleet.tenant_home(0).expect("tenant 0 was evacuated").0;
    assert_ne!(dest, 0);

    let ev = fleet
        .host(0)
        .core(0)
        .catalog()
        .lookup(named::RETIRED_UOPS)
        .unwrap();
    let record = |f: &mut FleetSupervisor, h: usize, cores: &[usize]| {
        f.record_host_trace(h, cores, &[ev], OriginFilter::Any, 1_000_000, 10_000_000)
            .unwrap()
    };

    let dead = record(&mut fleet, 0, &[victim_core]);
    let alive = record(&mut twin, 0, &[victim_core]);
    assert!(
        dead[0].row(0).iter().all(|&v| v == 0.0),
        "a crashed host handed out a nonzero counter: {:?}",
        dead[0].row(0)
    );
    assert!(
        alive[0].row(0).iter().sum::<f64>() > 0.0,
        "the clean twin must observe activity"
    );

    // Hosts that neither crashed nor adopted the evacuee are
    // bit-identical across the two fleets, every core.
    let all_cores: Vec<usize> = (0..topo.cores_per_host()).collect();
    for h in 1..topo.hosts {
        if h == dest {
            continue;
        }
        assert_eq!(
            record(&mut fleet, h, &all_cores),
            record(&mut twin, h, &all_cores),
            "untouched host {h} diverged from the clean twin"
        );
    }
}

/// The lane-batched measurement hook is bit-identical to recording on
/// detached forks of the shard: source-less lanes all reproduce the
/// fork's trace, and a lane with its own app plan diverges from it.
#[test]
fn batched_host_recording_matches_detached_fork_replicas() {
    use aegis::sev::{LaneGuest, PlanSource};
    let topo = FleetTopology {
        hosts: 2,
        sockets_per_host: 1,
        pairs_per_socket: 2,
    };
    let mut fleet = FleetSupervisor::deploy(
        fleet_config(topo, PlacementPolicy::Packed, 2, FaultPlan::none(), 9),
        shared_plan(),
        &app(),
    )
    .unwrap();
    fleet.run(2_000_000);
    let ev = fleet
        .host(0)
        .core(0)
        .catalog()
        .lookup(named::RETIRED_UOPS)
        .unwrap();
    let cores = [0usize, 1];
    let record_args = (1_000_000u64, 10_000_000u64);

    let mut fork = fleet.host(0).fork_detached();
    let scalar = fork
        .record_trace_multi(&cores, &[ev], OriginFilter::Any, record_args.0, record_args.1)
        .unwrap();

    let lanes: Vec<Vec<LaneGuest>> = (0..5)
        .map(|_| vec![LaneGuest::default(), LaneGuest::default()])
        .collect();
    let batched = fleet
        .record_host_trace_batch(0, &cores, lanes, &[ev], OriginFilter::Any, record_args.0, record_args.1)
        .unwrap();
    assert_eq!(batched.len(), 5);
    for lane in &batched {
        assert_eq!(lane, &scalar, "a source-less lane diverged from its fork twin");
    }

    // A lane carrying its own app plan must see that plan's activity.
    let (vm, vcpu) = fleet.host(0).assignment_of(0).expect("tenant core is assigned");
    let mut fork = fleet.host(0).fork_detached();
    use rand::SeedableRng;
    let plan = app().sample_plan(0, &mut rand::rngs::StdRng::seed_from_u64(33));
    fork.attach_app(vm, vcpu, Box::new(PlanSource::new(plan.clone())))
        .unwrap();
    let loaded_scalar = fork
        .record_trace_multi(&cores, &[ev], OriginFilter::Any, record_args.0, record_args.1)
        .unwrap();
    let loaded_lane = vec![vec![
        LaneGuest {
            app: Some(Box::new(PlanSource::new(plan))),
            injector: None,
        },
        LaneGuest::default(),
    ]];
    let loaded = fleet
        .record_host_trace_batch(0, &cores, loaded_lane, &[ev], OriginFilter::Any, record_args.0, record_args.1)
        .unwrap();
    assert_eq!(loaded[0], loaded_scalar, "a loaded lane diverged from its fork twin");
    assert_ne!(loaded[0], scalar, "the attached plan must show up in the counters");
}

// ── Family 2: the ε ledger across hosts ─────────────────────────────────

/// The fleet ledger store survives an aggressive gc while tenants live
/// (their records are pinned), so the ε carry after a crash reads the
/// true account, not a default.
#[test]
fn fleet_gc_never_evicts_a_live_tenants_ledger() {
    let dir = temp_dir("gc");
    let topo = FleetTopology {
        hosts: 2,
        sockets_per_host: 1,
        pairs_per_socket: 2,
    };
    let mut cfg = fleet_config(topo, PlacementPolicy::Packed, 3, FaultPlan::none(), 11);
    cfg.service = cfg.service.default_budget(10.0).ledger_dir(&dir).ledger_scope("fleet");
    let mut fleet = FleetSupervisor::deploy(cfg, shared_plan(), &app()).unwrap();
    fleet.run(2_000_000);

    // Budget-zero gc: everything unpinned is evicted.
    ArtifactCache::with_faults(&dir, FaultPlan::none()).gc(0).unwrap();

    fleet.inject_host_crash(0);
    fleet.run(20_000_000);
    let report = fleet.shutdown();
    for t in &report.tenants {
        assert_eq!(t.status, TenantStatus::Protected, "{} lost protection", t.tenant);
        if t.evacuations > 0 {
            assert!(
                t.epsilon_spent >= 2.0,
                "{}'s ε account did not survive gc + evacuation (ε={})",
                t.tenant,
                t.epsilon_spent
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tenant whose persisted ε record reads torn during evacuation is
/// quarantined: never re-placed, poisoned account, no home.
#[test]
fn torn_ledger_records_quarantine_their_tenants() {
    let dir = temp_dir("quarantine");
    let topo = FleetTopology {
        hosts: 2,
        sockets_per_host: 1,
        pairs_per_socket: 2,
    };
    let faults = FaultPlan {
        seed: 3,
        ledger_corrupt: 1.0,
        ..FaultPlan::none()
    };
    let mut cfg = fleet_config(topo, PlacementPolicy::Packed, 3, faults, 11);
    cfg.service = cfg.service.default_budget(10.0).ledger_dir(&dir).ledger_scope("fleet");
    let mut fleet = FleetSupervisor::deploy(cfg, shared_plan(), &app()).unwrap();
    fleet.run(2_000_000);
    let on_host_0: Vec<usize> = (0..3)
        .filter(|&t| fleet.tenant_home(t).unwrap().0 == 0)
        .collect();
    assert!(!on_host_0.is_empty());
    fleet.inject_host_crash(0);
    for &t in &on_host_0 {
        assert!(fleet.tenant_poisoned(t), "tenant {t} record should read torn");
        assert!(fleet.tenant_home(t).is_none(), "quarantined tenants have no home");
    }
    let report = fleet.shutdown();
    assert_eq!(report.quarantined as usize, on_host_0.len());
    for &t in &on_host_0 {
        assert_eq!(report.tenants[t].status, TenantStatus::Quarantined);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ── Family 3: determinism ───────────────────────────────────────────────

fn storm_report(threads: usize) -> FleetReport {
    set_threads(threads);
    let topo = FleetTopology {
        hosts: 4,
        sockets_per_host: 1,
        pairs_per_socket: 2,
    };
    let storm = FaultPlan {
        seed: 21,
        host_crash: 0.1,
        host_degrade: 0.2,
        ..FaultPlan::none()
    };
    let mut fleet = FleetSupervisor::deploy(
        fleet_config(topo, PlacementPolicy::Spread, 6, storm, 13),
        shared_plan(),
        &app(),
    )
    .unwrap();
    fleet.run_storm(4, 2_000_000);
    fleet.shutdown()
}

#[test]
fn fleet_reports_are_bit_identical_across_worker_counts() {
    let _guard = THREAD_KNOB.lock().unwrap();
    let serial = storm_report(1);
    let wide = storm_report(8);
    set_threads(0);
    assert_eq!(serial, wide, "worker count leaked into the fleet report");
    assert!(serial.crashes + serial.degrades > 0, "storm was a no-op");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Seeded storm schedules are pure functions of the plan: same plan
    /// → bit-identical schedule; the schedule is exhaustive over the
    /// host range; rates at zero schedule nothing for that event kind.
    #[test]
    fn storm_schedules_replay_bit_identically(
        seed in 0u64..1_000,
        crash_p in 0.0f64..0.5,
        degrade_p in 0.0f64..0.5,
        hosts in 1usize..12,
        steps in 1u64..24,
    ) {
        let plan = FaultPlan {
            seed,
            host_crash: crash_p,
            host_degrade: degrade_p,
            ..FaultPlan::none()
        };
        let a = storm_schedule(&plan, hosts, steps);
        let b = storm_schedule(&plan, hosts, steps);
        prop_assert_eq!(&a, &b);
        for hit in &a {
            prop_assert!(hit.host < hosts && hit.step < steps);
            if hit.crash {
                prop_assert!(crash_p > 0.0);
            } else {
                prop_assert!(degrade_p > 0.0);
            }
        }
    }
}

// ── Family 4: the fleet sweep ───────────────────────────────────────────

fn sweep_config() -> FleetSweepConfig {
    FleetSweepConfig {
        policies: vec![PlacementPolicy::Packed, PlacementPolicy::Spread],
        storm_seeds: vec![1, 2],
        topology: FleetTopology {
            hosts: 2,
            sockets_per_host: 1,
            pairs_per_socket: 2,
        },
        tenants: 4,
        steps: 3,
        step_ns: 2_000_000,
        host_crash: 0.2,
        host_degrade: 0.3,
        service: ServiceConfig::new(quick_cfg(FaultPlan::none())),
        arch: MicroArch::AmdEpyc7252,
        seed: 31,
    }
}

/// A sweep killed mid-grid by the fault plan resumes from its
/// checkpoint and completes bit-identically to an unkilled reference —
/// at a different worker count, for good measure.
#[test]
fn killed_fleet_sweep_resumes_bit_identically() {
    let _guard = THREAD_KNOB.lock().unwrap();
    let cfg = sweep_config();

    // Reference: no ambient faults, no checkpointing, 1 worker.
    set_threads(1);
    let ref_dir = temp_dir("sweep-ref");
    let reference = fleet_sweep(
        &ArtifactCache::with_faults(&ref_dir, FaultPlan::none()),
        &cfg,
        shared_plan(),
        &app(),
    )
    .unwrap();
    assert_eq!(reference.cells.len(), 4);
    assert!(
        reference.cells.iter().any(|c| c.crashes > 0),
        "these storm seeds must crash something"
    );

    // Killed run: ambient plan arms the checkpoint loop and kills after
    // 2 completed cells.
    set_threads(2);
    let kill_plan = FaultPlan {
        seed: 5,
        tick_jitter: 0.5,
        kill_after: 2,
        ..FaultPlan::none()
    };
    let dir = temp_dir("sweep-kill");
    let cache = ArtifactCache::with_faults(&dir, kill_plan);
    let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        fleet_sweep(&cache, &cfg, shared_plan(), &app())
    }));
    assert!(killed.is_err(), "the kill site must abort the first run");

    // Resume in the same cache dir: sails past the kill point.
    let resumed = fleet_sweep(&cache, &cfg, shared_plan(), &app()).unwrap();
    set_threads(0);
    assert_eq!(resumed, reference, "resumed sweep diverged from the reference");

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}
