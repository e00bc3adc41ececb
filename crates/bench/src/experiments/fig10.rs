//! Fig. 10: defense efficiency — latency overhead on the protected
//! application's execution time (upper) and VM CPU-usage overhead
//! (lower), as functions of ε for both mechanisms.
//!
//! Paper operating points: Laplace ε = 2⁰ → 3.18% (websites) / 4.36%
//! (model inference) execution-time overhead and 6.92% / 7.87% CPU-usage
//! overhead; d* ε = 2³ → 3.94% / 4.95% and 7.64% / 8.66%.

use crate::output::{print_header, print_kv, Table};
use crate::scenarios::{deployment_for, mea_zoo, new_host, plan_for, wfa_app, ExpConfig};
use aegis::measure_app_run;
use aegis::microarch::Feature;
use aegis::par::Executor;
use aegis::workloads::{SecretApp, WorkloadPlan};
use aegis::MechanismChoice;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strips the trailing idle padding from a website plan so latency means
/// "time to finish loading the page", like the paper's devtools timer.
fn strip_idle_tail(mut plan: WorkloadPlan) -> WorkloadPlan {
    while let Some(last) = plan.segments.last() {
        if last.rate[Feature::UopsRetired] < 10.0 {
            plan.segments.pop();
        } else {
            break;
        }
    }
    plan
}

pub fn run(cfg: &ExpConfig) {
    print_header("Fig. 10 — latency and CPU-usage overhead vs ε");
    let wfa = wfa_app(cfg);
    let zoo = mea_zoo(cfg);
    let runs = if cfg.quick { 6 } else { 15 };

    for (label, app, is_web) in [
        ("website access", &wfa as &dyn SecretApp, true),
        ("model inference", &zoo as &dyn SecretApp, false),
    ] {
        println!("  [{label}]");
        let (mut host, vm) = new_host(cfg.seed + 7);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xf160);
        let plans: Vec<WorkloadPlan> = (0..runs)
            .map(|i| {
                let secret = i % app.n_secrets();
                if is_web {
                    // Page load time: the plan without its idle tail.
                    strip_idle_tail(app.sample_plan(secret, &mut rng))
                } else {
                    // Inference time: a single unpadded inference pass.
                    zoo.sample_inference(secret, &mut rng).0
                }
            })
            .collect();

        // Baseline: undefended execution.
        let mut base_lat = 0.0;
        let mut base_cpu = 0.0;
        for (i, plan) in plans.iter().enumerate() {
            let m = measure_app_run(&mut host, vm, 0, plan.clone(), None, i as u64).unwrap();
            base_lat += m.latency_ns as f64 / runs as f64;
            base_cpu += m.cpu_usage / runs as f64;
        }
        print_kv(
            "baseline",
            format!(
                "latency {:.1} ms, CPU usage {:.1}%",
                base_lat / 1e6,
                base_cpu * 100.0
            ),
        );

        let mut t = Table::new(&[
            "mechanism",
            "eps",
            "latency overhead",
            "cpu usage",
            "cpu overhead",
        ]);
        type MechCtor = fn(f64) -> MechanismChoice;
        let mechanisms: [(&str, MechCtor); 2] = [
            ("laplace", |e| MechanismChoice::Laplace { epsilon: e }),
            ("dstar", |e| MechanismChoice::DStar { epsilon: e }),
        ];
        // The (mechanism, ε) cells are independent measurements, so they
        // shard across the worker pool, each running its apps on its own
        // fork of the baseline host. Warm the plan cache before workers
        // spawn.
        let _ = plan_for(cfg, app);
        let units: Vec<(&str, f64, MechanismChoice)> = mechanisms
            .iter()
            .flat_map(|&(name, make)| {
                cfg.eps_grid_fig9a()
                    .into_iter()
                    .map(move |eps| (name, eps, make(eps)))
            })
            .collect();
        let cells = Executor::from_config().map(units, |_unit, (name, eps, mech)| {
            let deployment = deployment_for(cfg, app, mech);
            let mut replica = host.fork_detached();
            let mut lat = 0.0;
            let mut cpu = 0.0;
            for (i, plan) in plans.iter().enumerate() {
                let m = measure_app_run(
                    &mut replica,
                    vm,
                    0,
                    plan.clone(),
                    Some(&deployment),
                    1000 + i as u64,
                )
                .unwrap();
                lat += m.latency_ns as f64 / runs as f64;
                cpu += m.cpu_usage / runs as f64;
            }
            (name, eps, lat, cpu)
        });
        for (name, eps, lat, cpu) in cells {
            let marker = if (name == "laplace" && eps == 1.0) || (name == "dstar" && eps == 8.0) {
                " *"
            } else {
                ""
            };
            t.row_strings(vec![
                format!("{name}{marker}"),
                format!("2^{:+.0}", eps.log2()),
                format!("{:+.2}%", (lat / base_lat - 1.0) * 100.0),
                format!("{:.1}%", cpu * 100.0),
                format!("{:+.2}%", (cpu / base_cpu - 1.0) * 100.0),
            ]);
        }
        t.print();
        t.save(&format!("fig10-{}", label.replace(' ', "-")));
        print_kv(
            "*",
            "the paper's chosen operating points (Laplace 2^0, d* 2^3)",
        );
    }
}
