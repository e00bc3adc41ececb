//! The service-plane contracts: watchdog recovery, gapless hot reload,
//! ε-exhaustion failing closed, and batch/service profiling parity.
//!
//! This binary is also part of the CI fault matrix: `scripts/check.sh`
//! re-runs it under `AEGIS_FAULTS=smoke`, so every test either passes an
//! explicit [`FaultPlan`] or (the ambient test at the bottom) asserts
//! invariants that hold under *any* plan.

use aegis::fuzzer::FuzzerConfig;
use aegis::microarch::MicroArch;
use aegis::obfuscator::{Obfuscator, ObfuscatorConfig};
use aegis::par::set_threads;
use aegis::profiler::{RankConfig, WarmupConfig};
use aegis::sev::{Host, SevMode, VmId, TICK_NS};
use aegis::workloads::KeystrokeApp;
use aegis::{
    AegisConfig, AegisError, AegisPipeline, AegisService, DefensePlan, FaultPlan, HealthReport,
    MechanismChoice, ServiceConfig, Status, SupervisorConfig,
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

/// One plan, profiled once per test binary and shared by every test:
/// the supervision contracts under test do not depend on *which* plan
/// is deployed, only that it is a real calibrated one.
fn shared_plan() -> &'static DefensePlan {
    static PLAN: OnceLock<DefensePlan> = OnceLock::new();
    PLAN.get_or_init(|| {
        let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 7);
        let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
        let app = KeystrokeApp::with_window(300_000_000);
        AegisPipeline::offline(&mut host, vm, 0, &app, &quick_cfg(FaultPlan::none())).unwrap()
    })
}

fn fresh_host(seed: u64) -> (Host, VmId, usize) {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, seed);
    let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
    let core = host.core_of(vm, 0).unwrap();
    (host, vm, core)
}

fn flap_always() -> FaultPlan {
    FaultPlan {
        health_flap: 1.0,
        ..FaultPlan::none()
    }
}

// ── Family 1: watchdog restart ──────────────────────────────────────────

#[test]
fn watchdog_restart_recovers_and_resumes_injection() {
    let (mut host, vm, core) = fresh_host(7);
    let cfg = ServiceConfig::new(quick_cfg(flap_always()))
        .seed(7)
        .supervisor(SupervisorConfig {
            health_check_interval_ns: 5_000_000,
            unhealthy_checks_restart: 1,
            max_restarts: 5,
            restart_backoff_ns: 2_000_000,
            ..SupervisorConfig::default()
        });
    let mut svc = AegisService::start(&mut host, cfg).unwrap();
    let id = svc.attach(vm, 0, shared_plan(), "acme").unwrap();

    // The (flapped) check at 5 ms trips the threshold-1 watchdog; the
    // redeploy fires when the 2 ms backoff expires at 7 ms.
    svc.run(8_000_000);
    let h = svc.health().sessions[0].clone();
    assert_eq!(h.restarts, 1, "exactly one watchdog restart by 8 ms");
    assert_eq!(h.status, Status::Healthy, "recovered before the next check");
    assert_eq!(h.epsilon_charged, 2.0, "attach + one restart epoch at ε=1");

    // The restarted daemon (epoch 1) injects noise again.
    let mid = svc.host().vcpu_stats(vm, 0).unwrap().injected_uops;
    svc.run(1_000_000);
    let after = svc.host().vcpu_stats(vm, 0).unwrap().injected_uops;
    assert!(
        after > mid,
        "recovered daemon must inject ({mid} -> {after})"
    );

    // Clean detach of a healthy session releases the latch.
    let report = svc.detach(id).unwrap();
    assert_eq!(report.status, Status::Detached);
    assert!(!svc.host().core_fail_closed(core));
}

/// A full supervised life (attach, flap-driven restarts, a hot reload,
/// final accounting) replayed at 1 and 8 workers.
fn supervised_scenario() -> (HealthReport, u64, u64, u64, bool, Option<f64>) {
    let (mut host, vm, _core) = fresh_host(7);
    let cfg = ServiceConfig::new(quick_cfg(flap_always()))
        .default_budget(64.0)
        .seed(7);
    let mut svc = AegisService::start(&mut host, cfg).unwrap();
    let id = svc.attach(vm, 0, shared_plan(), "acme").unwrap();
    svc.run(6_000_000);
    // Whether the reload lands or the session is mid-restart is part of
    // the deterministic outcome under comparison.
    let reload_ok = svc.reload(id, shared_plan()).is_ok();
    svc.run(6_000_000);
    let health = svc.health();
    let stats = svc.host().vcpu_stats(vm, 0).unwrap();
    let remaining = svc.epsilon_remaining("acme");
    let clock = svc.host().clock_ns();
    (
        health,
        stats.injected_uops.to_bits(),
        stats.app_uops.to_bits(),
        clock,
        reload_ok,
        remaining,
    )
}

#[test]
fn supervised_lifecycle_is_bit_identical_across_worker_counts() {
    let _guard = THREAD_KNOB.lock().unwrap();
    set_threads(1);
    let serial = supervised_scenario();
    set_threads(8);
    let wide = supervised_scenario();
    set_threads(1);
    assert!(
        serial.0.sessions[0].restarts > 0,
        "the flap schedule must actually trip the watchdog"
    );
    assert_eq!(serial, wide, "worker count leaked into the service plane");
}

// ── Family 2: hot reload drops no samples ───────────────────────────────

fn obf_state(svc: &mut aegis::ServiceHandle<'_>, vm: VmId) -> (usize, u64) {
    let obf = svc
        .host_mut()
        .injector_any_mut(vm, 0)
        .unwrap()
        .expect("session is running")
        .downcast_mut::<Obfuscator>()
        .expect("service injectors are obfuscators");
    (obf.intervals(), obf.stack_generation())
}

#[test]
fn hot_reload_is_gapless_and_atomic() {
    let drain_ns = ObfuscatorConfig::default().interval_ns + TICK_NS;
    let total_ns = 4_000_000;

    // A: reload mid-run (same stack, so the noise series is comparable).
    let (mut ha, va, _) = fresh_host(7);
    let mut a = AegisService::start(
        &mut ha,
        ServiceConfig::new(quick_cfg(FaultPlan::none())).seed(7),
    )
    .unwrap();
    let id = a.attach(va, 0, shared_plan(), "acme").unwrap();
    a.run(1_000_000);
    let receipt = a.reload(id, shared_plan()).unwrap();
    assert_eq!(receipt.plan_id, shared_plan().plan_id());
    a.run(total_ns - 1_000_000 - drain_ns);
    let (ta, gen_a) = obf_state(&mut a, va);
    let stats_a = a.host().vcpu_stats(va, 0).unwrap();

    // B: the twin that never reloads, same total sim time.
    let (mut hb, vb, _) = fresh_host(7);
    let mut b = AegisService::start(
        &mut hb,
        ServiceConfig::new(quick_cfg(FaultPlan::none())).seed(7),
    )
    .unwrap();
    b.attach(vb, 0, shared_plan(), "acme").unwrap();
    b.run(total_ns);
    let (tb, gen_b) = obf_state(&mut b, vb);
    let stats_b = b.host().vcpu_stats(vb, 0).unwrap();

    assert_eq!(gen_a, 1, "the swap landed exactly once");
    assert_eq!(gen_b, 0, "the twin never swapped");
    assert_eq!(ta, tb, "reload cost intervals (samples dropped)");
    assert_eq!(
        ta,
        (total_ns / ObfuscatorConfig::default().interval_ns) as usize,
        "every interval over the whole window closed exactly once"
    );
    assert_eq!(
        stats_a.injected_uops.to_bits(),
        stats_b.injected_uops.to_bits(),
        "swap-to-identical-stack must not perturb the noise series"
    );
}

// ── Family 3: ε exhaustion fails closed ─────────────────────────────────

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A tenant provisioned for exactly `epochs` ε=1 deployment epochs,
    /// under a permanent health flap forcing restart epochs: service is
    /// refused fail-closed at epoch `epochs + 1`, the guest's counters
    /// stay latched and the noise stream frozen, while the unmetered
    /// clean twin (same seeds, same faults) keeps being served.
    #[test]
    fn exhausted_ledger_fails_closed_against_clean_twin(
        epochs in 1u32..4,
        service_seed in 0u64..25,
    ) {
        let budget = f64::from(epochs) + 0.5;
        let sup = SupervisorConfig {
            health_check_interval_ns: 1_000_000,
            unhealthy_checks_restart: 1,
            max_restarts: 100,
            restart_backoff_ns: 1_000_000,
            backoff_cap_ns: 2_000_000,
            ..SupervisorConfig::default()
        };

        let (mut fh, fv, f_core) = fresh_host(7);
        let mut faulted = AegisService::start(
            &mut fh,
            ServiceConfig::new(quick_cfg(flap_always()))
                .default_budget(budget)
                .seed(service_seed)
                .supervisor(sup),
        )
        .unwrap();
        let fid = faulted.attach(fv, 0, shared_plan(), "acme").unwrap();
        faulted.run(40_000_000);

        prop_assert_eq!(faulted.status(fid).unwrap(), Status::Exhausted);
        let remaining = faulted.epsilon_remaining("acme").unwrap();
        prop_assert!(
            (remaining - 0.5).abs() < 1e-9,
            "charged exactly {} whole epochs, got remaining {}", epochs, remaining
        );
        prop_assert!(faulted.host().core_fail_closed(f_core), "exhaustion must latch");
        let frozen = faulted.host().vcpu_stats(fv, 0).unwrap().injected_uops;
        faulted.run(4_000_000);
        let still = faulted.host().vcpu_stats(fv, 0).unwrap().injected_uops;
        prop_assert_eq!(frozen.to_bits(), still.to_bits(), "no injection after refusal");

        let (mut ch, cv, _) = fresh_host(7);
        let mut clean = AegisService::start(
            &mut ch,
            ServiceConfig::new(quick_cfg(flap_always()))
                .seed(service_seed)
                .supervisor(sup),
        )
        .unwrap();
        let cid = clean.attach(cv, 0, shared_plan(), "acme").unwrap();
        clean.run(40_000_000);
        prop_assert!(clean.status(cid).unwrap() != Status::Exhausted, "unmetered never exhausts");
        let before = clean.host().vcpu_stats(cv, 0).unwrap().injected_uops;
        clean.run(4_000_000);
        let after = clean.host().vcpu_stats(cv, 0).unwrap().injected_uops;
        prop_assert!(after > before, "the clean twin keeps injecting");
        prop_assert!(
            clean.health().sessions[0].restarts > faulted.health().sessions[0].restarts,
            "the twin's watchdog keeps restarting past the faulted tenant's cutoff"
        );
    }
}

#[test]
fn ledger_persists_across_service_lifetimes() {
    let dir = std::env::temp_dir().join(format!("aegis-svc-ledger-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = |dir: &std::path::Path| {
        ServiceConfig::new(quick_cfg(FaultPlan::none()))
            .default_budget(2.5)
            .ledger_dir(dir)
            .ledger_scope("prod")
            .seed(7)
    };

    // First service life: the attach epoch spends ε = 1.
    let (mut h1, v1, _) = fresh_host(7);
    let mut s1 = AegisService::start(&mut h1, cfg(&dir)).unwrap();
    s1.attach(v1, 0, shared_plan(), "acme").unwrap();
    assert!((s1.epsilon_remaining("acme").unwrap() - 1.5).abs() < 1e-9);
    s1.shutdown().unwrap();

    // Second life, fresh host: the spend is remembered; the tenant can
    // afford one more epoch, and the next is refused fail-closed.
    let (mut h2, v2, core2) = fresh_host(9);
    let mut s2 = AegisService::start(&mut h2, cfg(&dir)).unwrap();
    assert!(
        (s2.epsilon_remaining("acme").unwrap() - 1.5).abs() < 1e-9,
        "the ledger survives the restart"
    );
    let id = s2.attach(v2, 0, shared_plan(), "acme").unwrap();
    let err = s2.reload(id, shared_plan()).unwrap_err();
    assert!(matches!(err, AegisError::BudgetExhausted { .. }), "{err}");
    assert_eq!(s2.status(id).unwrap(), Status::Exhausted);
    assert!(s2.host().core_fail_closed(core2));
    let _ = std::fs::remove_dir_all(&dir);
}

// ── Family 4: batch/service profiling parity ────────────────────────────

#[test]
fn offline_pipeline_and_service_profile_are_byte_identical() {
    // `shared_plan()` came from `AegisPipeline::offline` on a seed-7
    // host; an explicit start → profile → shutdown on an identical host
    // must produce the same plan byte for byte.
    let (mut host, vm, _) = fresh_host(7);
    let app = KeystrokeApp::with_window(300_000_000);
    let mut svc =
        AegisService::start(&mut host, ServiceConfig::new(quick_cfg(FaultPlan::none()))).unwrap();
    let mut plan = svc.profile(vm, 0, &app).unwrap();
    svc.shutdown().unwrap();
    // The fuzz report's step timings are wall-clock measurements of this
    // process, not sim time — normalize them out of the byte comparison.
    let mut reference = shared_plan().clone();
    plan.fuzz_report = Default::default();
    reference.fuzz_report = Default::default();
    assert_eq!(
        serde_json::to_string(&plan).unwrap(),
        serde_json::to_string(&reference).unwrap(),
        "batch and service profiling drifted"
    );
}

// ── Ambient fault matrix ────────────────────────────────────────────────

/// Runs under whatever `AEGIS_FAULTS` the environment sets (the CI
/// service-matrix pass uses `smoke`, firing `service.health_flap`,
/// `service.reload_torn`, and `service.ledger_corrupt`): lifecycle and
/// accounting invariants that no fault schedule may break, checked to be
/// replay-deterministic.
#[test]
fn service_invariants_hold_under_the_ambient_fault_plan() {
    let budget = 6.5;
    let scenario = || {
        let (mut host, vm, core) = fresh_host(7);
        let mut cfg = quick_cfg(FaultPlan::none());
        cfg.faults = None; // defer to the ambient AEGIS_FAULTS plan
        let dir = std::env::temp_dir().join(format!(
            "aegis-svc-ambient-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut svc = AegisService::start(
            &mut host,
            ServiceConfig::new(cfg)
                .default_budget(budget)
                .ledger_dir(&dir)
                .seed(7),
        )
        .unwrap();
        let id = svc.attach(vm, 0, shared_plan(), "acme").unwrap();
        svc.run(10_000_000);
        let reload = svc.reload(id, shared_plan());
        let reload_outcome = match &reload {
            Ok(receipt) => format!("ok:{:#x}", receipt.plan_id),
            Err(e) => format!("err:{e}"),
        };
        svc.run(10_000_000);

        let health = svc.health().sessions[0].clone();
        let remaining = svc.epsilon_remaining("acme").unwrap();
        // Accounting: what the ledger says is gone is exactly what the
        // session was charged.
        assert!(
            (budget - remaining - health.epsilon_charged).abs() < 1e-9,
            "ledger ({remaining} left of {budget}) disagrees with the session \
             ({} charged)",
            health.epsilon_charged
        );
        // Fail-closed: a terminal session always leaves the core latched.
        if matches!(health.status, Status::Exhausted | Status::Failed) {
            assert!(
                svc.host().core_fail_closed(core),
                "terminal {} session with a released latch",
                health.status
            );
        }
        let stats = svc.host().vcpu_stats(vm, 0).unwrap();
        let report = svc.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (
            health,
            reload_outcome,
            remaining.to_bits(),
            stats.injected_uops.to_bits(),
            report.sessions[0].clone(),
        )
    };
    let first = scenario();
    let second = scenario();
    assert_eq!(first, second, "fault schedules must replay bit-identically");
}
