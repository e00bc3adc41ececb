//! Fig. 3: the distribution of HPC event values — histogram of one
//! site's `DATA_CACHE_REFILLS_FROM_SYSTEM` feature, its Q-Q correlation
//! against N(0,1), and the fitted Gaussians of ten sites.

use crate::output::{print_header, print_kv, Table};
use crate::scenarios::{new_host, wfa_app, ExpConfig};
use aegis::attack::{qq_against_normal, qq_correlation, Gaussian, Mat, Pca};
use aegis::microarch::{named, OriginFilter};
use aegis::sev::PlanSource;
use aegis::workloads::SecretApp;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(cfg: &ExpConfig) {
    print_header("Fig. 3 — distribution of DATA_CACHE_REFILLS_FROM_SYSTEM values per site");
    let (mut host, vm) = new_host(cfg.seed);
    let app = wfa_app(cfg);
    let core = host.core_of(vm, 0).unwrap();
    let event = host
        .core(core)
        .catalog()
        .lookup(named::DATA_CACHE_REFILLS_FROM_SYSTEM)
        .unwrap();

    let reps = if cfg.quick { 40 } else { 120 };
    let n_sites = 10;
    let window_ns = 300_000_000;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xf193);

    // Measure `reps` accesses of each of the first 10 sites.
    let mut series: Vec<Vec<Vec<f64>>> = Vec::with_capacity(n_sites);
    for site in 0..n_sites {
        let mut rows = Vec::with_capacity(reps);
        for _ in 0..reps {
            let plan = app.sample_plan(site, &mut rng);
            host.attach_app(vm, 0, Box::new(PlanSource::new(plan)))
                .unwrap();
            let trace = host
                .record_trace(
                    &[core],
                    &[event],
                    OriginFilter::GuestOnly(vm.0),
                    5_000_000,
                    window_ns,
                )
                .unwrap()
                .remove(0);
            rows.push(trace.row(0).to_vec());
        }
        series.push(rows);
    }

    // PCA feature extraction over all measurements (Section V-B).
    let mut all = Mat::default();
    for row in series.iter().flatten() {
        all.push_row(row);
    }
    let pca = Pca::fit(&all, 1);
    let features: Vec<Vec<f64>> = series
        .iter()
        .map(|rows| rows.iter().map(|r| pca.transform1(r)).collect())
        .collect();

    // (a) histogram for facebook.com (site index 2).
    let fb = &features[2];
    let g = Gaussian::fit(fb);
    let mut hist = [0usize; 12];
    for &x in fb {
        let z = ((x - g.mu) / g.sigma / 0.5 + 6.0).clamp(0.0, 11.0) as usize;
        hist[z] += 1;
    }
    print_kv("site", app.secret_name(2));
    let mut t = Table::new(&["z-bin", "count"]);
    for (i, &c) in hist.iter().enumerate() {
        t.row_strings(vec![
            format!("{:+.2}σ", (i as f64 - 6.0) * 0.5),
            c.to_string(),
        ]);
    }
    t.print();

    // (b) Q-Q correlation against N(0,1) — near 1.0 means Gaussian.
    let qq = qq_correlation(&qq_against_normal(fb));
    print_kv(
        "Q-Q correlation vs N(0,1)",
        format!("{qq:.4} (Gaussian if ≈1)"),
    );

    // (c) fitted Gaussians of 10 sites.
    let mut t = Table::new(&["site", "mu", "sigma"]);
    for (site, feats) in features.iter().enumerate() {
        let g = Gaussian::fit(feats);
        t.row_strings(vec![
            app.secret_name(site),
            format!("{:.4e}", g.mu),
            format!("{:.4e}", g.sigma),
        ]);
    }
    t.print();

    // Separability check mirroring the paper's remark that the per-site
    // distributions "can still be classified easily".
    let models: Vec<Gaussian> = features.iter().map(|f| Gaussian::fit(f)).collect();
    let mi = aegis::profiler::gaussian_mixture_mi(&models);
    print_kv(
        "mutual information over the 10 sites",
        format!("{mi:.3} bits of {:.3} max", (n_sites as f64).log2()),
    );
}
