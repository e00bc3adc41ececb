//! Scheduler and monitoring edge cases across `aegis-sev` and
//! `aegis-perf`: multi-VM counter isolation, injector lifecycle, stats
//! windows, and timeout behaviour.

use aegis::microarch::{named, ActivityVector, Feature, MicroArch, OriginFilter};
use aegis::sev::{ActivitySource, Host, PlanSource, SevMode, TICK_NS};
use aegis::workloads::{MixSpec, SecretApp, Segment, WebsiteCatalog, WorkloadPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct ConstantLoad(f64);
impl ActivitySource for ConstantLoad {
    fn demand(&mut self) -> Option<ActivityVector> {
        let mut spec = MixSpec::idle();
        spec.uops_per_us = self.0;
        Some(spec.build())
    }
    fn advance(&mut self, _: u64) {}
}

#[test]
fn per_core_counters_isolate_coresident_vms() {
    // Two VMs on different cores: monitoring VM-A's core never sees VM-B.
    let mut host = Host::new(MicroArch::AmdEpyc7252, 4, 3);
    let vm_a = host.launch_vm(1, SevMode::SevSnp).unwrap();
    let vm_b = host.launch_vm(1, SevMode::SevSnp).unwrap();
    let core_a = host.core_of(vm_a, 0).unwrap();
    let core_b = host.core_of(vm_b, 0).unwrap();
    assert_ne!(core_a, core_b);

    // Only VM-B runs; VM-A stays idle.
    host.attach_app(vm_b, 0, Box::new(ConstantLoad(800.0)))
        .unwrap();
    let ev = host
        .core(core_a)
        .catalog()
        .lookup(named::RETIRED_UOPS)
        .unwrap();
    let trace_a = host
        .record_trace(&[core_a], &[ev], OriginFilter::Any, 10_000_000, 100_000_000)
        .unwrap()
        .remove(0);
    let trace_b = host
        .record_trace(&[core_b], &[ev], OriginFilter::Any, 10_000_000, 100_000_000)
        .unwrap()
        .remove(0);
    // Core A sees only host background (~1 µop/µs); core B sees the load.
    assert!(
        trace_a.totals()[0] < trace_b.totals()[0] / 50.0,
        "A {:?} vs B {:?}",
        trace_a.totals(),
        trace_b.totals()
    );
}

#[test]
fn detach_injector_stops_noise_immediately() {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 3);
    let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
    host.attach_injector(vm, 0, Box::new(ConstantLoad(200.0)))
        .unwrap();
    host.reset_vm_stats(vm).unwrap();
    host.run(10_000_000);
    let with = host.vcpu_stats(vm, 0).unwrap().injected_uops;
    assert!(with > 0.0);

    host.detach_injector(vm, 0).unwrap();
    host.reset_vm_stats(vm).unwrap();
    host.run(10_000_000);
    let without = host.vcpu_stats(vm, 0).unwrap().injected_uops;
    assert_eq!(without, 0.0);
}

#[test]
fn run_until_app_done_times_out_on_endless_apps() {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 3);
    let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
    let mut plan = WorkloadPlan::new();
    plan.push(Segment::new(u64::MAX / 4, MixSpec::idle().build()));
    host.attach_app(vm, 0, Box::new(PlanSource::new(plan)))
        .unwrap();
    let done = host.run_until_app_done(vm, 0, 5_000_000).unwrap();
    assert!(done.is_none(), "endless app must time out");
}

#[test]
fn stats_reset_opens_a_fresh_measurement_window() {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 3);
    let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
    host.attach_app(vm, 0, Box::new(ConstantLoad(400.0)))
        .unwrap();
    host.run(50_000_000);
    let first = host.vcpu_stats(vm, 0).unwrap().app_uops;
    assert!(first > 0.0);
    host.reset_vm_stats(vm).unwrap();
    assert_eq!(host.vcpu_stats(vm, 0).unwrap().app_uops, 0.0);
    host.run(50_000_000);
    let second = host.vcpu_stats(vm, 0).unwrap().app_uops;
    assert!((second - first).abs() / first < 0.05, "{first} vs {second}");
}

#[test]
fn cpu_usage_matches_demand_fraction() {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 3);
    let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
    let cap = host.arch().uops_capacity_per_us();
    host.attach_app(vm, 0, Box::new(ConstantLoad(cap * 0.25)))
        .unwrap();
    host.reset_vm_stats(vm).unwrap();
    host.run(100_000_000);
    let usage = host.vm_cpu_usage(vm).unwrap();
    assert!((usage - 0.25).abs() < 0.02, "usage {usage}");
}

#[test]
fn every_tick_runs_every_core_and_advances_the_clock() {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 3, 3);
    for tick in 1..=5 {
        let before: Vec<u64> = (0..3).map(|c| host.core(c).cycles()).collect();
        host.tick();
        for (c, &cycles) in before.iter().enumerate() {
            assert!(
                host.core(c).cycles() > cycles,
                "core {c} idle at tick {tick}"
            );
        }
        assert_eq!(host.clock_ns(), tick * TICK_NS);
    }
}

#[test]
fn defended_and_clean_windows_use_identical_app_plans() {
    // Determinism contract for the evaluation pipeline: the same app seed
    // produces the same plan regardless of whether a defense is attached.
    let app = WebsiteCatalog::new(7);
    let mut r1 = StdRng::seed_from_u64(11);
    let mut r2 = StdRng::seed_from_u64(11);
    let a = app.sample_plan(4, &mut r1);
    let b = app.sample_plan(4, &mut r2);
    assert_eq!(a, b);
    assert_eq!(a.segments.len(), b.segments.len());
    assert!(a.total_uops() > 0.0);
    let _ = a.segments[0].rate[Feature::UopsRetired];
}
