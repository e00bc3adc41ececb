//! Defense-side costs: mutual-information integration (the profiler's
//! ranking metric), gadget-stack calibration, and the obfuscator's
//! per-tick work on the hot path of the protected VM.

use aegis::attack::Gaussian;
use aegis::dp::{DStarMechanism, LaplaceMechanism, NoiseMechanism};
use aegis::fuzzer::Gadget;
use aegis::isa::{IsaCatalog, Vendor, WellKnown};
use aegis::microarch::{ActivityVector, Core, Feature, InterferenceConfig, MicroArch};
use aegis::obfuscator::{GadgetStack, Obfuscator, ObfuscatorConfig};
use aegis::profiler::gaussian_mixture_mi;
use aegis::sev::ActivitySource;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn bench_defense(c: &mut Criterion) {
    let mut g = c.benchmark_group("defense");

    g.bench_function("gaussian_mixture_mi_45_classes", |b| {
        let models: Vec<Gaussian> = (0..45)
            .map(|i| Gaussian {
                mu: i as f64 * 0.8,
                sigma: 1.0 + (i % 5) as f64 * 0.2,
            })
            .collect();
        b.iter(|| black_box(gaussian_mixture_mi(&models)));
    });

    g.sample_size(20);
    g.bench_function("gadget_stack_calibration_8_gadgets", |b| {
        let isa = IsaCatalog::synthetic(Vendor::Amd, 7);
        let gadgets: Vec<Gadget> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    Gadget::new(WellKnown::Clflush.id(), WellKnown::Load64.id())
                } else {
                    Gadget::new(WellKnown::Nop.id(), WellKnown::SimdAdd.id())
                }
            })
            .collect();
        b.iter(|| {
            let mut core = Core::new(MicroArch::AmdEpyc7252, 7);
            core.set_interference(InterferenceConfig::isolated());
            black_box(GadgetStack::calibrate(&isa, &mut core, gadgets.clone(), 64))
        });
    });

    g.sample_size(100);
    g.bench_function("obfuscator_observe_tick", |b| {
        let isa = IsaCatalog::synthetic(Vendor::Amd, 7);
        let mut core = Core::new(MicroArch::AmdEpyc7252, 7);
        let stack = GadgetStack::calibrate(
            &isa,
            &mut core,
            vec![Gadget::new(WellKnown::Clflush.id(), WellKnown::Load64.id())],
            64,
        );
        let mut obf = Obfuscator::new(
            stack,
            Box::new(LaplaceMechanism::new(1.0, 1)),
            ObfuscatorConfig::default(),
        );
        let app = ActivityVector::from_pairs(&[(Feature::UopsRetired, 800.0)]);
        b.iter(|| {
            obf.observe_coscheduled(&app, 100_000);
            black_box(obf.demand())
        });
    });
    g.finish();

    // One defended 200 ms trace window: a fresh obfuscator (d* keeps a
    // per-interval history, so it cannot run unboundedly) driven for
    // 2000 ticks of 100 µs. The rate is per tick, construction included.
    const WINDOW_TICKS: u64 = 2000;
    let mut g = c.benchmark_group("obfuscator_window");
    g.throughput(Throughput::Elements(WINDOW_TICKS));
    g.sample_size(30);
    let isa = IsaCatalog::synthetic(Vendor::Amd, 7);
    let mut core = Core::new(MicroArch::AmdEpyc7252, 7);
    let stack = GadgetStack::calibrate(
        &isa,
        &mut core,
        vec![Gadget::new(WellKnown::Clflush.id(), WellKnown::Load64.id())],
        64,
    );
    let app = ActivityVector::from_pairs(&[(Feature::UopsRetired, 800.0)]);
    for name in ["laplace", "dstar"] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mechanism: Box<dyn NoiseMechanism> = match name {
                    "laplace" => Box::new(LaplaceMechanism::new(1.0, 1)),
                    _ => Box::new(DStarMechanism::new(8.0, 1)),
                };
                let mut obf =
                    Obfuscator::new(stack.clone(), mechanism, ObfuscatorConfig::default());
                for _ in 0..WINDOW_TICKS {
                    obf.observe_coscheduled(&app, 100_000);
                    black_box(obf.demand());
                }
                obf.injected_counts()
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_defense);
criterion_main!(benches);
