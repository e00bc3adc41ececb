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
    clean_cached, deployment_for, ksa_app, mea_zoo, new_host, plan_for, wfa_app, ExpConfig,
};
use aegis::attack::mutual_information_hist;
use aegis::dp::{DStarMechanism, LaplaceMechanism, NoiseMechanism};
use aegis::par::ArtifactCache;
use aegis::sweep::{run_sweep, SweepConfig};
use aegis::workloads::SecretApp;
use aegis::{Attacker, ClassifierAttack, MeaAttack, MechanismChoice};

pub fn fig9a(cfg: &ExpConfig) {
    print_header("Fig. 9a — attack accuracy vs ε (clean-trained attacker)");
    let grid = cfg.eps_grid_fig9a();
    classifier(cfg, "WFA", &wfa_app(cfg), 0, &grid, false);
    classifier(cfg, "KSA", &ksa_app(cfg), 1, &grid, false);
    sweep::<MeaAttack>(
        cfg,
        "MEA",
        "(layer-sequence match accuracy)",
        &mea_zoo(cfg),
        cfg.mea_collect(),
        2,
        &grid,
        (2, 0), // 2 victim runs per model; Fig. 9b has no MEA row
        false,
    );
}

pub fn fig9b(cfg: &ExpConfig) {
    print_header("Fig. 9b — attack accuracy vs ε (robust attacker trained on noisy traces)");
    let grid = cfg.eps_grid_fig9b();
    classifier(cfg, "WFA", &wfa_app(cfg), 4, &grid, true);
    classifier(cfg, "KSA", &ksa_app(cfg), 5, &grid, true);
}

/// A WFA/KSA sweep: the label picks the collection settings; victims
/// take the sweep test-set size, the robust attacker two thirds of the
/// clean training traces (at least 4).
fn classifier(
    cfg: &ExpConfig,
    label: &str,
    app: &(dyn SecretApp + 'static),
    seed_off: u64,
    eps_grid: &[f64],
    robust: bool,
) {
    let collect = if label == "WFA" {
        cfg.wfa_collect()
    } else {
        cfg.ksa_collect()
    };
    sweep::<ClassifierAttack>(
        cfg,
        label,
        &format!("(random guess = {})", pct(1.0 / app.n_secrets() as f64)),
        app,
        collect,
        seed_off,
        eps_grid,
        (
            cfg.sweep_traces_per_secret(app.n_secrets()),
            (collect.traces_per_secret * 2 / 3).max(4),
        ),
        robust,
    );
}

/// Runs one attacker's sweep on a host seeded `seed + seed_off` with
/// `(victim, robust)` traces (MEA: runs) per secret, prints it as the
/// figure's table, and its cache traffic to stderr (stdout must not
/// depend on the cache state). The clean-trained attacker (Fig. 9a) is
/// trained once per sweep; both its clean data and the model are
/// memoized.
#[allow(clippy::too_many_arguments)] // one knob per sweep input
fn sweep<A: Attacker>(
    cfg: &ExpConfig,
    label: &str,
    subtitle: &str,
    target: &A::Target,
    collect: A::Collect,
    seed_off: u64,
    eps_grid: &[f64],
    (victim_per_secret, robust_per_secret): (usize, usize),
    robust: bool,
) {
    let seed = cfg.seed + seed_off;
    let (host, vm) = new_host(seed);
    let core = host.core_of(vm, 0).unwrap();
    let events = host.core(core).catalog().attack_events().to_vec();
    let cache = ArtifactCache::default_location();

    let clean_attacker = (!robust).then(|| {
        let clean = clean_cached::<A>(seed, &host, vm, 0, target, &events, &collect);
        A::train_cached(&clean, cfg.seed, &cache)
    });

    // Warm the plan cache before workers spawn, then build the base
    // deployment whose mechanism each cell swaps out.
    let app = A::app(target);
    let _ = plan_for(cfg, app);
    let base = deployment_for(cfg, app, MechanismChoice::Laplace { epsilon: 1.0 });
    let sweep_cfg = SweepConfig {
        eps_grid: eps_grid.to_vec(),
        seed,
        host_seed: seed,
        victim_per_secret,
        robust_per_secret,
    };
    let out = run_sweep(
        &host,
        vm,
        0,
        target,
        &events,
        &collect,
        &base,
        clean_attacker.as_ref(),
        &sweep_cfg,
        &cache,
    )
    .expect("sweep uses validated ids");

    let save_as = format!(
        "fig9{}-{}",
        if robust { "b" } else { "a" },
        label.to_lowercase()
    );
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
    t.save(&save_as);
    eprintln!(
        "  [cache] {label} sweep {save_as}: {} hits, {} misses",
        out.cache_hits, out.cache_misses
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
    let clean =
        clean_cached::<ClassifierAttack>(cfg.seed + 3, &host, vm, 0, &app, &events, &collect);

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
