//! Extensions beyond the paper's evaluation: the future-work items the
//! conclusion names (fine-grained cryptographic-key attacks,
//! multi-instruction noise gadgets) and ablations of this reproduction's
//! own design choices.

use crate::output::{pct, print_header, print_kv, Table};
use crate::scenarios::{deployment_for, new_host, wfa_app, ExpConfig};
use aegis::attack::{Mlp, MlpConfig, SoftmaxRegression, Standardizer, TrainConfig};
use aegis::fuzzer::{EventFuzzer, FuzzerConfig};
use aegis::isa::IsaCatalog;
use aegis::microarch::{named, Core, InterferenceConfig};
use aegis::obfuscator::ObfuscatorConfig;
use aegis::workloads::{CryptoApp, SecretApp};
use aegis::{Attacker, ClassifierAttack, Collector, MechanismChoice};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Future work §X: "investigate the effectiveness of Aegis on more
/// fine-grained attacks, e.g., stealing cryptographic keys". A 4-bit
/// square-and-multiply key is recovered from HPC traces, then Aegis is
/// deployed against it.
pub fn ext_crypto(cfg: &ExpConfig) {
    print_header("Extension — fine-grained crypto-key extraction (paper future work)");
    let (host, vm) = new_host(cfg.seed + 21);
    let app = CryptoApp::with_window(4, 400_000_000);
    let core = host.core_of(vm, 0).unwrap();
    let events = host.core(core).catalog().attack_events().to_vec();

    let collect = aegis::CollectConfig {
        traces_per_secret: if cfg.quick { 10 } else { 16 },
        window_ns: 400_000_000,
        interval_ns: 1_000_000,
        pool: 4, // fine-grained: 4 ms pools resolve individual key bits
        seed: cfg.seed,
        per_secret_noise: false,
    };
    let clean = Collector::for_traces(collect)
        .dataset(&host, vm, 0, &app, &events, None)
        .unwrap();
    let attacker = ClassifierAttack::fit(&clean, cfg.seed);
    print_kv(
        "clean key-recovery accuracy",
        format!(
            "{} (random guess {})",
            pct(attacker.curve.final_val_acc()),
            pct(1.0 / app.n_secrets() as f64)
        ),
    );

    let mut t = Table::new(&["defense", "key accuracy"]);
    for (label, mech) in [
        ("laplace eps=2^0", MechanismChoice::Laplace { epsilon: 1.0 }),
        (
            "laplace eps=2^-2",
            MechanismChoice::Laplace { epsilon: 0.25 },
        ),
        ("dstar eps=2^3", MechanismChoice::DStar { epsilon: 8.0 }),
    ] {
        let deployment = deployment_for(cfg, &app, mech);
        let mut victim = collect;
        victim.seed = cfg.seed ^ 0xc2f9;
        victim.traces_per_secret = 8;
        let defended = Collector::for_traces(victim)
            .dataset(&host, vm, 0, &app, &events, Some(&deployment))
            .unwrap();
        t.row_strings(vec![label.to_string(), pct(attacker.accuracy(&defended))]);
    }
    t.print();
    print_kv(
        "expected shape",
        "per-bit square/multiply leakage recovers keys cleanly; Aegis suppresses it toward 1/16",
    );
}

/// Future work §X: "study the defense effect of noise gadgets with more
/// instructions" — compare 1-, 2- and 3-instruction sequence gadgets.
pub fn ext_multigadget(cfg: &ExpConfig) {
    print_header("Extension — multi-instruction noise gadgets (paper future work)");
    let isa = IsaCatalog::shared(aegis::isa::Vendor::Amd, cfg.seed);
    let mut core = Core::new(aegis::microarch::MicroArch::AmdEpyc7252, cfg.seed);
    core.set_interference(InterferenceConfig::isolated());
    // µop retirement: per-execution effect grows with trigger length.
    let ev = core.catalog().lookup(named::RETIRED_UOPS).unwrap();
    let fuzzer = EventFuzzer::new(FuzzerConfig {
        candidates_per_event: if cfg.quick { 600 } else { 2_000 },
        confirm_reps: 10,
        seed: cfg.seed,
        ..FuzzerConfig::default()
    });
    let mut t = Table::new(&[
        "seq len",
        "confirmed",
        "hit rate",
        "max effect",
        "mean effect",
    ]);
    for len in 1..=3usize {
        core.reset_cache();
        let confirmed = fuzzer.fuzz_event_sequences(&isa, &mut core, ev, len);
        let max = confirmed.first().map_or(0.0, |c| c.effect);
        let mean = if confirmed.is_empty() {
            0.0
        } else {
            confirmed.iter().map(|c| c.effect).sum::<f64>() / confirmed.len() as f64
        };
        t.row_strings(vec![
            len.to_string(),
            confirmed.len().to_string(),
            pct(confirmed.len() as f64 / fuzzer.config().candidates_per_event as f64),
            format!("{max:.2}"),
            format!("{mean:.2}"),
        ]);
    }
    t.print();
    print_kv(
        "expected shape",
        "longer sequences confirm less often (combinatorial space) but reach larger per-execution effects",
    );
}

/// Ablations of this reproduction's design choices.
pub fn ablations(cfg: &ExpConfig) {
    ablation_learners(cfg);
    ablation_lanes(cfg);
    ablation_interval(cfg);
}

/// Which attacker model? The Gaussian class-conditional learner vs the
/// discriminative alternatives on the same WFA dataset.
fn ablation_learners(cfg: &ExpConfig) {
    print_header("Ablation — attacker model choice (WFA, same dataset)");
    let (host, vm) = new_host(cfg.seed + 22);
    let app = wfa_app(cfg);
    let core = host.core_of(vm, 0).unwrap();
    let events = host.core(core).catalog().attack_events().to_vec();
    let collect = cfg.wfa_collect();
    let ds = Collector::for_traces(collect)
        .dataset(&host, vm, 0, &app, &events, None)
        .unwrap();

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (mut train, mut val) = ds.split(0.7, &mut rng);
    let st = Standardizer::fit(&train.samples);
    st.apply_dataset(&mut train);
    st.apply_dataset(&mut val);

    let mut t = Table::new(&["learner", "val accuracy"]);
    let nb = aegis::attack::GaussianNb::fit(&train);
    t.row_strings(vec![
        "gaussian class-conditional".into(),
        pct(nb.accuracy(&val)),
    ]);
    let (softmax, _) = SoftmaxRegression::train(&train, &val, TrainConfig::default(), &mut rng);
    t.row_strings(vec![
        "softmax regression".into(),
        pct(softmax.accuracy(&val)),
    ]);
    let (mlp, _) = Mlp::train(&train, &val, MlpConfig::default(), &mut rng);
    t.row_strings(vec!["mlp (1 hidden layer)".into(), pct(mlp.accuracy(&val))]);
    t.print();
    print_kv(
        "takeaway",
        "the generative model matches the channel's Gaussian structure and dominates at these dataset sizes",
    );
}

/// Does lane-diverse injection matter? Compare the defended WFA accuracy
/// of the standard (≤4-lane) injector against a single-direction stack.
fn ablation_lanes(cfg: &ExpConfig) {
    print_header("Ablation — lane-diverse vs single-direction injection (WFA, laplace eps=2^3)");
    let (host, vm) = new_host(cfg.seed + 23);
    let app = wfa_app(cfg);
    let core = host.core_of(vm, 0).unwrap();
    let events = host.core(core).catalog().attack_events().to_vec();
    let collect = cfg.wfa_collect();
    let clean = Collector::for_traces(collect)
        .dataset(&host, vm, 0, &app, &events, None)
        .unwrap();
    let attacker = ClassifierAttack::fit(&clean, cfg.seed);

    // A weak budget where the attack partially survives, so injector
    // structure is visible in the outcome.
    let lanes = deployment_for(cfg, &app, MechanismChoice::Laplace { epsilon: 8.0 });
    // Single-direction variant: collapse per-gadget signatures into one.
    let mut single = lanes.clone();
    single.stack.per_gadget = vec![single.stack.unit_activity];

    let mut t = Table::new(&["injector", "defended accuracy"]);
    for (label, d) in [("4-lane (default)", &lanes), ("single direction", &single)] {
        let mut victim = collect;
        victim.seed = cfg.seed ^ 0x1a9e ^ label.len() as u64;
        victim.traces_per_secret = cfg.sweep_traces_per_secret(app.n_secrets());
        let defended = Collector::for_traces(victim)
            .dataset(&host, vm, 0, &app, &events, Some(d))
            .unwrap();
        t.row_strings(vec![label.to_string(), pct(attacker.accuracy(&defended))]);
    }
    t.print();
    print_kv(
        "takeaway",
        "injector structure is second-order: at equal volume, lane-diverse and single-direction noise defend comparably",
    );
}

/// Does sub-sample injection granularity matter? 200 µs intervals (no
/// clean attacker slices) vs 1 ms intervals (half the slices noise-free
/// after clipping), at equal expected volume.
fn ablation_interval(cfg: &ExpConfig) {
    print_header("Ablation — injection interval at equal noise volume (WFA, laplace eps=2^3)");
    let (host, vm) = new_host(cfg.seed + 24);
    let app = wfa_app(cfg);
    let core = host.core_of(vm, 0).unwrap();
    let events = host.core(core).catalog().attack_events().to_vec();
    let collect = cfg.wfa_collect();
    let clean = Collector::for_traces(collect)
        .dataset(&host, vm, 0, &app, &events, None)
        .unwrap();
    let attacker = ClassifierAttack::fit(&clean, cfg.seed);

    let fine = deployment_for(cfg, &app, MechanismChoice::Laplace { epsilon: 8.0 });
    let mut coarse = fine.clone();
    coarse.obfuscator = ObfuscatorConfig {
        interval_ns: 1_000_000,
        noise_scale_counts: fine.obfuscator.noise_scale_counts
            * (1_000_000.0 / fine.obfuscator.interval_ns as f64),
        clip: fine.obfuscator.clip,
    };

    let mut t = Table::new(&["interval", "defended accuracy", "injected uops"]);
    for (label, d) in [("200 us (default)", &fine), ("1 ms", &coarse)] {
        let mut victim = collect;
        victim.seed = cfg.seed ^ 0x417e ^ label.len() as u64;
        victim.traces_per_secret = cfg.sweep_traces_per_secret(app.n_secrets());
        let before = host.vcpu_stats(vm, 0).unwrap().injected_uops;
        let defended = Collector::for_traces(victim)
            .dataset(&host, vm, 0, &app, &events, Some(d))
            .unwrap();
        let injected = host.vcpu_stats(vm, 0).unwrap().injected_uops - before;
        t.row_strings(vec![
            label.to_string(),
            pct(attacker.accuracy(&defended)),
            format!("{injected:.2e}"),
        ]);
    }
    t.print();
    print_kv(
        "takeaway",
        "at equal volume the granularities defend comparably; fine intervals additionally guarantee no attacker slice is ever noise-free after the [0,B_u] clip",
    );
}
