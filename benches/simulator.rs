//! Simulator throughput above the instruction level: rate-based mix
//! execution (the VM fast path) and whole-host scheduler ticks.
//!
//! Instruction-level and session-level core execution is covered by
//! `benches/core_kernel.rs`, which times the scalar reference against
//! the batched struct-of-arrays engine with bit-equal traces asserted.

use aegis::microarch::{ActivityVector, Core, Feature, MicroArch, Origin};
use aegis::sev::{Host, PlanSource, SevMode};
use aegis::workloads::{MixSpec, Segment, WorkloadPlan};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");

    g.throughput(Throughput::Elements(1));
    g.bench_function("core_run_mix_100us", |b| {
        let mut core = Core::new(MicroArch::AmdEpyc7252, 7);
        let rate = ActivityVector::from_pairs(&[
            (Feature::UopsRetired, 1000.0),
            (Feature::Loads, 300.0),
            (Feature::Cycles, 400.0),
        ]);
        b.iter(|| black_box(core.run_mix(&rate, 100_000, Origin::Guest(0))));
    });

    g.bench_function("host_tick_2_cores_with_guest", |b| {
        let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 7);
        let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
        let mut spec = MixSpec::idle();
        spec.uops_per_us = 800.0;
        let mut plan = WorkloadPlan::new();
        plan.push(Segment::new(u64::MAX / 2, spec.build()));
        host.attach_app(vm, 0, Box::new(PlanSource::new(plan)))
            .unwrap();
        b.iter(|| host.tick());
    });

    g.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
