//! Fig. 9: defense effectiveness.
//!
//! * (a) attack accuracy vs ε for the clean-trained attacker — both
//!   mechanisms drive the three attacks from >90% towards random guess;
//!   d* dominates Laplace at equal ε, especially ε ≥ 2⁰.
//! * (b) the robust attacker trained on noisy traces — d* still wins;
//!   Laplace needs a smaller ε.
//! * (c) the empirical mutual information I(X;X') between clean and
//!   noised traces collapses as ε shrinks, bounding any learner.
//!
//! The (ε, mechanism) grids run on `aegis::sweep`: deterministic
//! derive_seed-keyed cells sharded across the worker pool, with noisy
//! datasets and trained models memoized through the workspace
//! [`ArtifactCache`]. Cache traffic goes to stderr (and the `[obs]`
//! summary counters) so the accuracy tables on stdout stay bit-identical
//! between cold and warm runs.

use crate::output::{pct, print_header, print_kv, Table};
use crate::scenarios::{
    clean_dataset_cached, clean_mea_runs_cached, deployment_for, ksa_app, mea_zoo, new_host,
    plan_for, wfa_app, ExpConfig,
};
use aegis::attack::{mutual_information_hist, TrainConfig};
use aegis::dp::{DStarMechanism, LaplaceMechanism, NoiseMechanism};
use aegis::par::ArtifactCache;
use aegis::sweep::{self, SweepConfig, SweepOutcome};
use aegis::workloads::SecretApp;
use aegis::{ClassifierAttack, MeaAttack, MechanismChoice};

pub fn fig9a(cfg: &ExpConfig) {
    print_header("Fig. 9a — attack accuracy vs ε (clean-trained attacker)");
    classification_sweep(cfg, "WFA", &wfa_app(cfg), 0, &cfg.eps_grid_fig9a(), false);
    classification_sweep(cfg, "KSA", &ksa_app(cfg), 1, &cfg.eps_grid_fig9a(), false);
    mea_sweep(cfg, &cfg.eps_grid_fig9a(), false);
}

pub fn fig9b(cfg: &ExpConfig) {
    print_header("Fig. 9b — attack accuracy vs ε (robust attacker trained on noisy traces)");
    classification_sweep(cfg, "WFA", &wfa_app(cfg), 4, &cfg.eps_grid_fig9b(), true);
    classification_sweep(cfg, "KSA", &ksa_app(cfg), 5, &cfg.eps_grid_fig9b(), true);
}

/// Prints one finished sweep as the figure's table, and its cache
/// traffic to stderr (stdout must not depend on the cache state).
fn print_sweep(label: &str, subtitle: &str, out: &SweepOutcome, save_as: &str) {
    let mut t = Table::new(&["eps", "laplace acc", "dstar acc"]);
    for (eps, laplace, dstar) in out.rows() {
        t.row_strings(vec![
            format!("2^{:+.0}", eps.log2()),
            pct(laplace),
            pct(dstar),
        ]);
    }
    println!("  [{label}] {subtitle}");
    t.print();
    t.save(save_as);
    eprintln!(
        "  [cache] {label} sweep {save_as}: {} hits, {} misses",
        out.cache_hits, out.cache_misses
    );
}

fn classification_sweep(
    cfg: &ExpConfig,
    label: &str,
    app: &dyn SecretApp,
    seed_off: u64,
    eps_grid: &[f64],
    robust: bool,
) {
    let (host, vm) = new_host(cfg.seed + seed_off);
    let core = host.core_of(vm, 0).unwrap();
    let events = host.core(core).catalog().attack_events().to_vec();
    let collect = if label == "WFA" {
        cfg.wfa_collect()
    } else {
        cfg.ksa_collect()
    };
    let chance = 1.0 / app.n_secrets() as f64;
    let cache = ArtifactCache::default_location();

    // Clean-trained attacker (fig9a) is trained once and reused; both
    // the clean dataset and the trained model are memoized.
    let clean_attacker = if robust {
        None
    } else {
        let clean = clean_dataset_cached(cfg.seed + seed_off, &host, vm, 0, app, &events, &collect);
        Some(ClassifierAttack::train_cached(
            &clean,
            TrainConfig::default(),
            cfg.seed,
            &cache,
        ))
    };

    // Warm the plan cache before workers spawn, then build the base
    // deployment whose mechanism each cell swaps out.
    let _ = plan_for(cfg, app);
    let base = deployment_for(cfg, app, MechanismChoice::Laplace { epsilon: 1.0 });
    let sweep_cfg = SweepConfig {
        eps_grid: eps_grid.to_vec(),
        seed: cfg.seed + seed_off,
        host_seed: cfg.seed + seed_off,
        train: TrainConfig::default(),
        victim_traces_per_secret: cfg.sweep_traces_per_secret(app.n_secrets()),
        robust_traces_per_secret: (collect.traces_per_secret * 2 / 3).max(4),
        victim_runs_per_model: 0, // classification sweep: unused
    };
    let out = sweep::classification_sweep(
        &host,
        vm,
        0,
        app,
        &events,
        &collect,
        &base,
        clean_attacker.as_ref(),
        &sweep_cfg,
        &cache,
    )
    .expect("sweep uses validated ids");
    print_sweep(
        label,
        &format!("(random guess = {})", pct(chance)),
        &out,
        &format!(
            "fig9{}-{}",
            if robust { "b" } else { "a" },
            label.to_lowercase()
        ),
    );
}

fn mea_sweep(cfg: &ExpConfig, eps_grid: &[f64], robust: bool) {
    let zoo = mea_zoo(cfg);
    let (host, vm) = new_host(cfg.seed + 2);
    let core = host.core_of(vm, 0).unwrap();
    let events = host.core(core).catalog().attack_events().to_vec();
    let collect = cfg.mea_collect();
    let cache = ArtifactCache::default_location();

    let clean_attacker = if robust {
        None
    } else {
        let runs = clean_mea_runs_cached(cfg.seed + 2, &host, vm, 0, &zoo, &events, &collect);
        Some(MeaAttack::train_cached(
            &runs,
            TrainConfig::default(),
            cfg.seed,
            &cache,
        ))
    };

    let _ = plan_for(cfg, &zoo);
    let base = deployment_for(cfg, &zoo, MechanismChoice::Laplace { epsilon: 1.0 });
    let sweep_cfg = SweepConfig {
        eps_grid: eps_grid.to_vec(),
        seed: cfg.seed + 2,
        host_seed: cfg.seed + 2,
        train: TrainConfig::default(),
        victim_traces_per_secret: 0, // MEA sweep: unused
        robust_traces_per_secret: 0, // MEA sweep: unused
        victim_runs_per_model: 2,
    };
    let out = sweep::mea_sweep(
        &host,
        vm,
        0,
        &zoo,
        &events,
        &collect,
        &base,
        clean_attacker.as_ref(),
        &sweep_cfg,
        &cache,
    )
    .expect("sweep uses validated ids");
    print_sweep(
        "MEA",
        "(layer-sequence match accuracy)",
        &out,
        if robust { "fig9b-mea" } else { "fig9a-mea" },
    );
}

/// Fig. 9c: empirical I(X;X') between clean and mechanism-noised traces
/// as a function of ε. The noising is applied analytically to measured
/// clean traces — it is the mechanism itself under evaluation here, not
/// the injector.
pub fn fig9c(cfg: &ExpConfig) {
    print_header("Fig. 9c — mutual information I(X;X') between clean and noised traces");
    let (host, vm) = new_host(cfg.seed + 3);
    let app = wfa_app(cfg);
    let core = host.core_of(vm, 0).unwrap();
    let events = host.core(core).catalog().attack_events().to_vec();
    let mut collect = cfg.wfa_collect();
    collect.traces_per_secret = if cfg.quick { 4 } else { 8 };
    let clean = clean_dataset_cached(cfg.seed + 3, &host, vm, 0, &app, &events, &collect);

    // Scalar feature per trace: its first pooled RETIRED_UOPS value
    // stream, normalized to the obfuscator's unit scale.
    let scale = aegis::obfuscator::ObfuscatorConfig::default().noise_scale_counts;
    let xs: Vec<f64> = clean
        .samples
        .iter()
        .flat_map(|s| s.iter().take(12).copied())
        .map(|v| v / scale)
        .collect();

    let mut t = Table::new(&["eps", "I(X;X') laplace (bits)", "I(X;X') dstar (bits)"]);
    let mut grid = cfg.eps_grid_fig9b();
    grid.reverse(); // large ε (little noise) first, like the paper's x-axis
    for eps in grid {
        let mut lap = LaplaceMechanism::new(eps, cfg.seed);
        let noisy_lap: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| x + lap.noise_at(i + 1, x).max(0.0))
            .collect();
        let mut ds = DStarMechanism::new(eps, cfg.seed);
        let noisy_ds: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                if i % 512 == 0 {
                    ds.reset();
                }
                x + ds.noise_at(i % 512 + 1, x).max(0.0)
            })
            .collect();
        t.row_strings(vec![
            format!("2^{:+.0}", eps.log2()),
            format!("{:.3}", mutual_information_hist(&xs, &noisy_lap, 16)),
            format!("{:.3}", mutual_information_hist(&xs, &noisy_ds, 16)),
        ]);
    }
    t.print();
    t.save("fig9c");
    print_kv(
        "expected shape",
        "I(X;X') decreases monotonically as ε shrinks (more noise) — so I(X';Y) decreases too",
    );
}
