//! The flagship integration test: the full Aegis loop — attack succeeds
//! undefended, the offline pipeline builds a plan, the deployed
//! obfuscator collapses the attack, and the overhead stays bounded.

use aegis::fuzzer::FuzzerConfig;
use aegis::microarch::MicroArch;
use aegis::profiler::{RankConfig, WarmupConfig};
use aegis::sev::{Host, SevMode, VmId};
use aegis::workloads::{KeystrokeApp, SecretApp};
use aegis::{
    measure_app_run, AegisConfig, AegisPipeline, Attacker, ClassifierAttack, CollectConfig,
    Collector, DefenseDeployment, FaultPlan, MechanismChoice,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (Host, VmId, KeystrokeApp) {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 7);
    let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
    (host, vm, KeystrokeApp::with_window(300_000_000))
}

fn quick_pipeline() -> AegisConfig {
    AegisConfig {
        warmup: WarmupConfig {
            // Keystroke windows are mostly idle, so probes must be long
            // and repeated to catch bursts in every event group.
            probe_ns: 6_000_000,
            passes: 5,
            ..WarmupConfig::default()
        },
        rank: RankConfig {
            reps_per_secret: 2,
            window_ns: 50_000_000,
            interval_ns: 10_000_000,
            seed: 7,
        },
        fuzzer: FuzzerConfig {
            candidates_per_event: 100,
            confirm_reps: 8,
            ..FuzzerConfig::default()
        },
        fuzz_top_events: 6,
        isa_seed: 7,
        ..AegisConfig::default()
    }
}

fn collect_cfg() -> CollectConfig {
    CollectConfig {
        traces_per_secret: 14,
        window_ns: 300_000_000,
        interval_ns: 2_000_000,
        pool: 25,
        seed: 7,
        per_secret_noise: false,
    }
}

#[test]
fn attack_collapses_under_deployed_defense() {
    let (mut host, vm, app) = setup();
    let core = host.core_of(vm, 0).unwrap();
    let events = host.core(core).catalog().attack_events().to_vec();
    let cfg = collect_cfg();

    // 1. The attack works on the undefended guest.
    let clean = Collector::for_traces(cfg)
        .dataset(&host, vm, 0, &app, &events, None)
        .unwrap();
    let attacker = ClassifierAttack::fit(&clean, 7);
    let clean_acc = attacker.curve.final_val_acc();
    assert!(clean_acc > 0.85, "clean attack accuracy {clean_acc}");

    // 2. Offline pipeline: profile + fuzz + plan.
    let plan = AegisPipeline::offline(&mut host, vm, 0, &app, &quick_pipeline()).unwrap();
    assert!(!plan.covering.is_empty());
    // The attack events must be among the profiled vulnerable events.
    for ev in &events {
        assert!(
            plan.vulnerable_events.contains(ev),
            "attack event missing from the profile"
        );
    }

    // 3. Deployed defense collapses the attack towards random guess.
    let deployment = DefenseDeployment::new(&plan, MechanismChoice::Laplace { epsilon: 0.5 });
    let mut victim_cfg = cfg;
    victim_cfg.seed = 99;
    victim_cfg.traces_per_secret = 8;
    let defended = Collector::for_traces(victim_cfg)
        .dataset(&host, vm, 0, &app, &events, Some(&deployment))
        .unwrap();
    let def_acc = attacker.accuracy(&defended);
    let chance = 1.0 / app.n_secrets() as f64;
    assert!(
        def_acc < chance + 0.15,
        "defended accuracy {def_acc} vs chance {chance}"
    );

    // 4. And the cost stays bounded at a moderate budget.
    let mut rng = StdRng::seed_from_u64(3);
    let one_run = app.sample_plan(5, &mut rng);
    let base = measure_app_run(&mut host, vm, 0, one_run.clone(), None, 0).unwrap();
    let mild = DefenseDeployment::new(&plan, MechanismChoice::Laplace { epsilon: 1.0 });
    let run = measure_app_run(&mut host, vm, 0, one_run, Some(&mild), 0).unwrap();
    let overhead = run.latency_ns as f64 / base.latency_ns as f64 - 1.0;
    assert!(
        (0.0..0.12).contains(&overhead),
        "latency overhead {overhead} at eps=1"
    );
}

#[test]
fn dstar_defends_better_than_laplace_at_equal_epsilon() {
    let (mut host, vm, app) = setup();
    let core = host.core_of(vm, 0).unwrap();
    let events = host.core(core).catalog().attack_events().to_vec();
    let cfg = collect_cfg();

    let clean = Collector::for_traces(cfg)
        .dataset(&host, vm, 0, &app, &events, None)
        .unwrap();
    let attacker = ClassifierAttack::fit(&clean, 7);
    let plan = AegisPipeline::offline(&mut host, vm, 0, &app, &quick_pipeline()).unwrap();

    // At a weak budget (ε = 2⁵) Laplace leaks while d* still defends.
    let eps = 32.0;
    let mut accs = Vec::new();
    for mech in [
        MechanismChoice::Laplace { epsilon: eps },
        MechanismChoice::DStar { epsilon: eps },
    ] {
        let deployment = DefenseDeployment::new(&plan, mech);
        let mut victim_cfg = cfg;
        victim_cfg.seed = 1234;
        victim_cfg.traces_per_secret = 8;
        let defended = Collector::for_traces(victim_cfg)
            .dataset(&host, vm, 0, &app, &events, Some(&deployment))
            .unwrap();
        accs.push(attacker.accuracy(&defended));
    }
    assert!(
        accs[1] + 0.15 < accs[0],
        "dstar ({}) must beat laplace ({}) at eps=2^5",
        accs[1],
        accs[0]
    );
}

#[test]
fn deploy_all_covers_every_vcpu() {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 4, 7);
    let vm = host.launch_vm(4, SevMode::SevSnp).unwrap();
    let app = KeystrokeApp::with_window(300_000_000);
    // Build a plan on a separate single-vCPU template.
    let (mut template, tvm, _) = setup();
    let plan = AegisPipeline::offline(&mut template, tvm, 0, &app, &quick_pipeline()).unwrap();

    let deployment = DefenseDeployment::new(&plan, MechanismChoice::Laplace { epsilon: 1.0 });
    deployment.deploy_all(&mut host, vm, 42).unwrap();
    host.reset_vm_stats(vm).unwrap();
    host.run(50_000_000);
    for vcpu in 0..4 {
        let stats = host.vcpu_stats(vm, vcpu).unwrap();
        assert!(
            stats.injected_uops > 0.0,
            "vCPU {vcpu} received no noise: {stats:?}"
        );
    }
    // Unknown VM still errors.
    assert!(deployment.deploy_all(&mut host, VmId(9), 1).is_err());
}

#[test]
fn attestation_gates_plan_deployment() {
    let (mut template, vm, app) = setup();
    let plan = AegisPipeline::offline(&mut template, vm, 0, &app, &quick_pipeline()).unwrap();

    // Same family, fully sealed → accepted (profile on 7252, run on 7313P).
    let mut prod = Host::new(MicroArch::AmdEpyc7313P, 2, 9);
    let prod_vm = prod.launch_vm(1, SevMode::SevSnp).unwrap();
    let report = prod.attest(prod_vm).unwrap();
    assert!(plan.verify_target(&report).is_ok());

    // Wrong family → rejected.
    let mut intel = Host::new(MicroArch::IntelXeonE5_1650, 2, 9);
    let intel_vm = intel.launch_vm(1, SevMode::SevSnp).unwrap();
    let report = intel.attest(intel_vm).unwrap();
    assert!(plan.verify_target(&report).is_err());

    // Weak protection → rejected even on the right family.
    let mut weak = Host::new(MicroArch::AmdEpyc7252, 2, 9);
    let weak_vm = weak.launch_vm(1, SevMode::Sev).unwrap();
    let report = weak.attest(weak_vm).unwrap();
    assert!(plan.verify_target(&report).is_err());
}

#[test]
fn defense_plan_survives_serialization_roundtrip() {
    let (mut host, vm, app) = setup();
    let plan = AegisPipeline::offline(&mut host, vm, 0, &app, &quick_pipeline()).unwrap();
    let json = serde_json::to_string(&plan).unwrap();
    let restored: aegis::DefensePlan = serde_json::from_str(&json).unwrap();
    // Float round-tripping through JSON is not bit-exact; compare the
    // structural content and spot-check the rankings.
    assert_eq!(plan.vulnerable_events, restored.vulnerable_events);
    assert_eq!(plan.covering, restored.covering);
    assert_eq!(plan.stack.gadgets, restored.stack.gadgets);
    assert_eq!(plan.rankings.len(), restored.rankings.len());
    for (a, b) in plan.rankings.iter().zip(&restored.rankings) {
        assert_eq!(a.event, b.event);
        assert!((a.mi_bits - b.mi_bits).abs() < 1e-9);
    }
    // A deployment built from the restored plan still injects.
    let deployment = DefenseDeployment::new(&restored, MechanismChoice::Laplace { epsilon: 1.0 });
    deployment.deploy(&mut host, vm, 0, 1).unwrap();
    host.reset_vm_stats(vm).unwrap();
    host.run(20_000_000);
    assert!(host.vcpu_stats(vm, 0).unwrap().injected_uops > 0.0);
}

/// `aegis offline --app dnn --seed 252`: fuzzing confirms no gadget for
/// any top-ranked event. The pipeline must say so with a typed error
/// naming those events, not panic while calibrating an empty stack.
/// The seed's outcome is defined fault-free, so host and pipeline pin
/// `FaultPlan::none()` whatever `AEGIS_FAULTS` says.
#[test]
fn offline_without_a_covering_gadget_is_a_typed_error() {
    let seed = 252;
    let mut host = Host::with_faults(MicroArch::AmdEpyc7252, 2, seed, FaultPlan::none());
    let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
    let cfg = AegisConfig::builder()
        .warmup(WarmupConfig {
            probe_ns: 3_000_000,
            passes: 3,
            ..WarmupConfig::default()
        })
        .rank(RankConfig {
            reps_per_secret: 2,
            window_ns: 80_000_000,
            interval_ns: 10_000_000,
            seed,
        })
        .fuzzer(FuzzerConfig {
            candidates_per_event: 150,
            confirm_reps: 10,
            seed,
            ..FuzzerConfig::default()
        })
        .fuzz_top_events(10)
        .isa_seed(seed)
        .faults(FaultPlan::none())
        .build()
        .unwrap();
    let app = aegis::workloads::DnnZoo::new(seed);
    match AegisPipeline::offline(&mut host, vm, 0, &app, &cfg) {
        Err(aegis::AegisError::Uncovered { events }) => {
            assert_eq!(events.len(), 10, "{events:?}");
            assert!(events.iter().all(|e| !e.is_empty()));
        }
        other => panic!(
            "expected AegisError::Uncovered, got {:?}",
            other.map(|p| p.covering.len())
        ),
    }
}
