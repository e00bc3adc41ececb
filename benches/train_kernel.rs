//! The attacker-learning plane before and after the flat refactor:
//!
//! * `train_kernel/*` — the SGD and PCA kernels on contiguous `Mat`
//!   storage (`train`, `fit`) against their nested-`Vec` scalar
//!   references (`train_scalar`, `fit_scalar`). Both paths produce
//!   bit-identical models (`tests/flat_reference.rs` enforces it); the
//!   flat path only changes storage layout and scratch reuse.
//! * `fig9_robust_sweep/*` — one robust-attacker (ε, mechanism) grid
//!   end to end, recomputed cold (the pre-cache path) vs replayed from
//!   a warm [`ArtifactCache`]. The derived `speedup-warm-over-cold` row
//!   in `BENCH_train.json` is the headline number; the acceptance bar
//!   is ≥ 3×.

mod common;

use aegis::attack::{Dataset, Mlp, MlpConfig, Pca, SoftmaxRegression, TrainConfig};
use aegis::fuzzer::Gadget;
use aegis::microarch::MicroArch;
use aegis::obfuscator::{GadgetStack, ObfuscatorConfig};
use aegis::par::{set_threads, ArtifactCache};
use aegis::sev::{Host, SevMode, VmId};
use aegis::sweep::{SweepConfig, SweepOutcome};
use aegis::workloads::KeystrokeApp;
use aegis::{ClassifierAttack, CollectConfig, DefenseDeployment, MechanismChoice};
use aegis_isa::{IsaCatalog, Vendor, WellKnown};
use common::BenchFile;
use criterion::{black_box, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A separable synthetic dataset big enough that storage layout shows.
fn synthetic_dataset(seed: u64, n: usize, dim: usize, k: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut samples = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let label = i % k;
        let row: Vec<f64> = (0..dim)
            .map(|j| rng.gen_range(-1.0..1.0) + (label * (j % 3)) as f64 * 0.5)
            .collect();
        samples.push(row);
        labels.push(label);
    }
    Dataset::new(samples, labels, k)
}

fn bench_train_kernels(c: &mut Criterion) {
    let train = synthetic_dataset(5, 120, 96, 6);
    let val = synthetic_dataset(6, 40, 96, 6);
    let softmax_cfg = TrainConfig {
        epochs: 8,
        batch_size: 16,
        ..TrainConfig::default()
    };
    let mlp_cfg = MlpConfig {
        hidden: 32,
        epochs: 4,
        lr: 0.05,
        batch_size: 16,
    };
    let nested: Vec<Vec<f64>> = (0..train.len())
        .map(|i| train.samples.row(i).to_vec())
        .collect();

    let mut g = c.benchmark_group("train_kernel");
    g.sample_size(3);
    g.bench_function("softmax-flat", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(9);
            black_box(SoftmaxRegression::train(
                &train,
                &val,
                softmax_cfg,
                &mut rng,
            ))
        });
    });
    g.bench_function("softmax-scalar", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(9);
            black_box(SoftmaxRegression::train_scalar(
                &train,
                &val,
                softmax_cfg,
                &mut rng,
            ))
        });
    });
    g.bench_function("mlp-flat", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(9);
            black_box(Mlp::train(&train, &val, mlp_cfg, &mut rng))
        });
    });
    g.bench_function("mlp-scalar", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(9);
            black_box(Mlp::train_scalar(&train, &val, mlp_cfg, &mut rng))
        });
    });
    g.bench_function("pca-flat", |b| {
        b.iter(|| black_box(Pca::fit(&train.samples, 8)));
    });
    g.bench_function("pca-scalar", |b| {
        b.iter(|| black_box(Pca::fit_scalar(&nested, 8)));
    });
    g.finish();
}

/// One robust-attacker sweep testbed: host, events, app, deployment.
struct SweepBed {
    host: Host,
    vm: VmId,
    events: Vec<aegis::microarch::EventId>,
    app: KeystrokeApp,
    collect: CollectConfig,
    deployment: DefenseDeployment,
    cfg: SweepConfig,
}

fn sweep_bed() -> SweepBed {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 3);
    let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
    let core = host.core_of(vm, 0).unwrap();
    let events = host.core(core).catalog().attack_events().to_vec();
    let isa = IsaCatalog::synthetic(Vendor::Amd, 7);
    let mut cal_core = aegis::microarch::Core::new(host.arch(), 9);
    let stack = GadgetStack::calibrate(
        &isa,
        &mut cal_core,
        vec![Gadget::new(WellKnown::Clflush.id(), WellKnown::Load64.id())],
        64,
    );
    SweepBed {
        host,
        vm,
        events,
        app: KeystrokeApp::with_window(300_000_000),
        collect: CollectConfig {
            traces_per_secret: 4,
            window_ns: 300_000_000,
            interval_ns: 2_000_000,
            pool: 25,
            seed: 7,
            per_secret_noise: false,
        },
        deployment: DefenseDeployment {
            stack,
            mechanism: MechanismChoice::Laplace { epsilon: 0.25 },
            obfuscator: ObfuscatorConfig::default(),
        },
        cfg: SweepConfig {
            eps_grid: vec![0.25, 1.0, 4.0],
            seed: 11,
            host_seed: 3,
            victim_per_secret: 3,
            robust_per_secret: 3,
        },
    }
}

fn run_sweep(bed: &SweepBed, cache: &ArtifactCache) -> SweepOutcome {
    aegis::sweep::run_sweep::<ClassifierAttack>(
        &bed.host,
        bed.vm,
        0,
        &bed.app,
        &bed.events,
        &bed.collect,
        &bed.deployment,
        None,
        &bed.cfg,
        cache,
    )
    .expect("sweep uses validated ids")
}

fn bench_robust_sweep(c: &mut Criterion) {
    let bed = sweep_bed();
    let dir = std::env::temp_dir().join(format!("aegis-train-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ArtifactCache::new(&dir);
    // Populate once so the warm benchmark measures pure replay.
    let seeded = run_sweep(&bed, &cache);
    assert_eq!(seeded.cache_hits, 0, "fresh cache must start cold");

    let mut g = c.benchmark_group("fig9_robust_sweep");
    g.sample_size(3);
    g.bench_function("cold", |b| {
        // The pre-cache execution path: every cell recollects its noisy
        // datasets and retrains its model.
        b.iter(|| black_box(run_sweep(&bed, &ArtifactCache::disabled())));
    });
    g.bench_function("warm", |b| {
        b.iter(|| {
            let out = run_sweep(&bed, &cache);
            assert_eq!(out.cache_misses, 0, "warm sweep must replay every artifact");
            black_box(out)
        });
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    set_threads(2);
    if std::env::var("AEGIS_BENCH_SMOKE").as_deref() == Ok("1") {
        // One tiny flat-vs-scalar round plus one cold/warm sweep pair:
        // proves the bench compiles and runs in tier-1 CI.
        let train = synthetic_dataset(5, 20, 8, 3);
        let val = synthetic_dataset(6, 8, 8, 3);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let flat = SoftmaxRegression::train(&train, &val, cfg, &mut StdRng::seed_from_u64(9));
        let scalar =
            SoftmaxRegression::train_scalar(&train, &val, cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(flat, scalar);

        let mut bed = sweep_bed();
        bed.cfg.eps_grid = vec![0.25];
        bed.cfg.victim_per_secret = 2;
        bed.cfg.robust_per_secret = 2;
        let dir = std::env::temp_dir().join(format!("aegis-train-smoke-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ArtifactCache::new(&dir);
        let cold = run_sweep(&bed, &cache);
        let warm = run_sweep(&bed, &cache);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(cold.cells, warm.cells);
        assert_eq!(warm.cache_misses, 0);
        set_threads(1);
        eprintln!("[train_kernel smoke OK]");
        return;
    }

    let mut criterion = Criterion::default().configure_from_args();
    bench_train_kernels(&mut criterion);
    bench_robust_sweep(&mut criterion);
    set_threads(1);

    let mut out = BenchFile::new(
        "train_kernel",
        "softmax, MLP and PCA on 120 x 96 samples, flat vs nested-Vec; one robust-attacker \
         sweep (keystroke, Laplace, 3 epsilons) cold vs from a warm cache",
    );
    for (prefix, layer, attacks) in [
        ("train_kernel/", "attack", "attack.train_pct"),
        ("fig9_robust_sweep/cold", "sweep", "repro.fig9a_pct"),
        ("fig9_robust_sweep/warm", "sweep", "repro.fig9a_warm_pct"),
    ] {
        out.sampled(criterion.results(), prefix, layer, Some(attacks));
    }
    out.derive(
        "fig9_robust_sweep/speedup-warm-over-cold",
        "speedup",
        "x",
        &["fig9_robust_sweep/cold", "fig9_robust_sweep/warm"],
        |m| m[0] / m[1],
    );
    out.write("BENCH_train.json");
}
