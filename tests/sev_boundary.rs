//! Cross-crate confidentiality invariants: what the host can and cannot
//! observe about a sealed guest, and why pinning the obfuscator to the
//! app's vCPU makes the two indistinguishable.

use aegis::microarch::{named, EventKind, MicroArch, OriginFilter};
use aegis::sev::{Host, HostError, PlanSource, SevMode, SevViolation};
use aegis::workloads::{MixSpec, SecretApp, Segment, WebsiteCatalog, WorkloadPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn host_with_guest() -> (Host, aegis::sev::VmId) {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 3);
    let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
    (host, vm)
}

#[test]
fn sev_blocks_memory_and_registers_at_every_generation() {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 4, 3);
    let plain = host.launch_vm(1, SevMode::Unencrypted).unwrap();
    let sev = host.launch_vm(1, SevMode::Sev).unwrap();
    let snp = host.launch_vm(1, SevMode::SevSnp).unwrap();

    assert!(host.read_guest_memory(plain).is_ok());
    assert!(host.read_guest_registers(plain).is_ok());

    assert_eq!(
        host.read_guest_memory(sev),
        Err(HostError::Sev(SevViolation::MemoryEncrypted))
    );
    assert!(
        host.read_guest_registers(sev).is_ok(),
        "plain SEV leaves registers open"
    );

    assert_eq!(
        host.read_guest_memory(snp),
        Err(HostError::Sev(SevViolation::MemoryEncrypted))
    );
    assert_eq!(
        host.read_guest_registers(snp),
        Err(HostError::Sev(SevViolation::RegistersEncrypted))
    );
}

#[test]
fn host_observes_guest_hpcs_despite_snp() {
    let (mut host, vm) = host_with_guest();
    let core = host.core_of(vm, 0).unwrap();
    let app = WebsiteCatalog::new(7);
    let mut rng = StdRng::seed_from_u64(1);
    host.attach_app(
        vm,
        0,
        Box::new(PlanSource::new(app.sample_plan(0, &mut rng))),
    )
    .unwrap();
    let events = host.core(core).catalog().attack_events();
    let trace = host
        .record_trace(&[core], &events, OriginFilter::Any, 10_000_000, 200_000_000)
        .unwrap()
        .remove(0);
    assert!(
        trace.totals()[0] > 1e6,
        "the guest's µops are visible to the host: {:?}",
        trace.totals()
    );
}

#[test]
fn software_events_never_reflect_guest_activity() {
    let (mut host, vm) = host_with_guest();
    let core = host.core_of(vm, 0).unwrap();
    let catalog = host.core(core).catalog();
    let sw_events: Vec<_> = catalog
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Software)
        .map(|e| e.id)
        .take(4)
        .collect();
    assert!(!sw_events.is_empty());

    // A guest hammering syscalls/page faults still cannot move host
    // software events — they observe the host kernel, not the enclave.
    let mut spec = MixSpec::idle();
    spec.uops_per_us = 500.0;
    spec.syscalls_per_us = 1.0;
    spec.page_faults_per_us = 0.1;
    let mut plan = WorkloadPlan::new();
    plan.push(Segment::new(200_000_000, spec.build()));
    host.attach_app(vm, 0, Box::new(PlanSource::new(plan)))
        .unwrap();
    let trace = host
        .record_trace(
            &[core],
            &sw_events,
            OriginFilter::GuestOnly(vm.0),
            10_000_000,
            200_000_000,
        )
        .unwrap()
        .remove(0);
    assert!(
        trace.totals().iter().all(|&t| t == 0.0),
        "software events must be blind to the guest: {:?}",
        trace.totals()
    );
}

#[test]
fn injector_and_app_are_indistinguishable_to_the_host() {
    // Two experiments: (a) the app produces X activity alone; (b) the app
    // produces X/2 and an injector on the same vCPU produces X/2. The
    // host's counter readings are statistically the same — it cannot
    // attribute counts within a vCPU.
    struct FixedSource(f64);
    impl aegis::sev::ActivitySource for FixedSource {
        fn demand(&mut self) -> Option<aegis::microarch::ActivityVector> {
            let mut spec = MixSpec::idle();
            spec.uops_per_us = self.0;
            Some(spec.build())
        }
        fn advance(&mut self, _: u64) {}
    }

    let uops_event = |host: &Host, core: usize| {
        host.core(core)
            .catalog()
            .lookup(named::RETIRED_UOPS)
            .unwrap()
    };

    let run = |app_rate: f64, inj_rate: Option<f64>| -> f64 {
        let (mut host, vm) = host_with_guest();
        let core = host.core_of(vm, 0).unwrap();
        let ev = uops_event(&host, core);
        host.attach_app(vm, 0, Box::new(FixedSource(app_rate)))
            .unwrap();
        if let Some(r) = inj_rate {
            host.attach_injector(vm, 0, Box::new(FixedSource(r)))
                .unwrap();
        }
        let trace = host
            .record_trace(&[core], &[ev], OriginFilter::Any, 10_000_000, 100_000_000)
            .unwrap()
            .remove(0);
        trace.totals()[0]
    };

    let alone = run(400.0, None);
    let split = run(200.0, Some(200.0));
    let rel = (alone - split).abs() / alone;
    assert!(rel < 0.05, "host distinguishes split execution: {rel}");
}

#[test]
fn trace_recording_is_deterministic_per_seed() {
    let collect = |seed: u64| {
        let mut host = Host::new(MicroArch::AmdEpyc7252, 2, seed);
        let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
        let core = host.core_of(vm, 0).unwrap();
        let app = WebsiteCatalog::new(7);
        let mut rng = StdRng::seed_from_u64(5);
        host.attach_app(
            vm,
            0,
            Box::new(PlanSource::new(app.sample_plan(3, &mut rng))),
        )
        .unwrap();
        let events = host.core(core).catalog().attack_events();
        host.record_trace(&[core], &events, OriginFilter::Any, 10_000_000, 100_000_000)
            .unwrap()
            .remove(0)
    };
    assert_eq!(collect(9), collect(9));
    assert_ne!(collect(9), collect(10));
}
