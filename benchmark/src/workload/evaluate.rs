//! `evaluate-attack`: the customer's evaluation path — `aegis evaluate`
//! then `aegis overhead` — on fresh hosts against plans built during
//! setup. One job is one round `r`: {keystroke, website} × {Laplace
//! ε=1, d* ε=8}, with collection seed `seed + r`.

use super::offline::cli_config;
use super::{app, digest, secs, template, Cx, Workload, ARCH};
use aegis::attack::TrainConfig;
use aegis::isa::IsaCatalog;
use aegis::microarch::{EventCatalog, ResponseMatrix};
use aegis::workloads::SecretApp;
use aegis::{
    measure_app_run, AegisPipeline, ClassifierAttack, CollectConfig, Collector, DefenseDeployment,
    DefensePlan, MechanismChoice,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const APPS: [&str; 2] = ["keystroke", "website"];
const MECHANISMS: [MechanismChoice; 2] = [
    MechanismChoice::Laplace { epsilon: 1.0 },
    MechanismChoice::DStar { epsilon: 8.0 },
];
/// Rounds cycle over `0..ROUNDS`.
const ROUNDS: u64 = 5;
/// Baseline and defended runs per overhead measurement (as the CLI).
const OVERHEAD_RUNS: usize = 8;

pub struct EvaluateAttack {
    seed: u64,
    plans: Vec<DefensePlan>,
}

impl EvaluateAttack {
    pub fn new(seed: u64) -> Self {
        EvaluateAttack {
            seed,
            plans: Vec::new(),
        }
    }

    /// Round `r`: every (app, mechanism) evaluation.
    fn round(&self, cx: &mut Cx, r: u64) {
        for (a, name) in APPS.into_iter().enumerate() {
            let app = app(name, self.seed);
            for mechanism in MECHANISMS {
                let outcome = evaluate(cx, &self.plans[a], app.as_ref(), mechanism, self.seed, r)
                    .and_then(|e| e.check_and_record(cx));
                cx.op(
                    format!("eval/{name}/{}/s{}/r{r}", mechanism.label(), self.seed),
                    outcome,
                );
            }
        }
    }
}

impl Workload for EvaluateAttack {
    fn setup(&mut self, cx: &mut Cx) -> Result<(), String> {
        let seed = self.seed;
        cx.trace.timed("setup.catalogs", || {
            EventCatalog::shared(ARCH);
            ResponseMatrix::shared(ARCH);
            IsaCatalog::shared(ARCH.vendor(), seed);
        });
        let span = cx.trace.begin("setup.plans");
        for name in APPS {
            let (mut host, vm) = template(seed)?;
            let plan = AegisPipeline::offline(
                &mut host,
                vm,
                0,
                app(name, seed).as_ref(),
                &cli_config(seed),
            )
            .map_err(|e| e.to_string())?;
            self.plans.push(plan);
        }
        cx.trace.end(span);
        let span = cx.trace.begin("setup.warmup_op");
        self.round(cx, 0);
        cx.trace.end(span);
        Ok(())
    }

    fn job(&mut self, k: usize, cx: &mut Cx) -> Vec<f64> {
        let r = k as u64 % ROUNDS;
        let t0 = Instant::now();
        let span = cx.trace.begin("op");
        self.round(cx, r);
        cx.trace.end(span);
        vec![secs(t0)]
    }
}

/// One evaluation's outputs.
struct Evaluation {
    clean_acc: f64,
    defended_acc: f64,
    /// Mean (latency ns, cpu share) without and with the defense.
    baseline: (f64, f64),
    defended: (f64, f64),
    traces: usize,
    sim_ns: f64,
}

impl Evaluation {
    fn check_and_record(self, cx: &mut Cx) -> Result<String, String> {
        let accs = [self.clean_acc, self.defended_acc];
        if accs.iter().any(|a| !(0.0..=1.0).contains(a)) {
            return Err(format!("accuracy out of range: {accs:?}"));
        }
        if self.defended_acc > self.clean_acc {
            return Err(format!(
                "defended accuracy {} above clean {}",
                self.defended_acc, self.clean_acc
            ));
        }
        if !(self.baseline.0 > 0.0 && self.defended.0 > 0.0) {
            return Err("a measured run reported no latency".into());
        }
        cx.add("attack.clean_acc", self.clean_acc);
        cx.add("attack.defended_acc", self.defended_acc);
        cx.add(
            "sev.overhead_pct",
            (self.defended.0 / self.baseline.0 - 1.0) * 100.0,
        );
        cx.add("sev.traces", self.traces as f64);
        cx.add("sev.sim_s", self.sim_ns / 1e9);
        cx.add("eval.ops", 1.0);
        Ok(digest(&(
            self.clean_acc,
            self.defended_acc,
            self.baseline,
            self.defended,
        )))
    }
}

/// The collection settings `aegis evaluate --seed s` uses.
fn collect_cfg(app: &dyn SecretApp, s: u64) -> CollectConfig {
    CollectConfig {
        traces_per_secret: (240 / app.n_secrets()).clamp(6, 24),
        window_ns: app.window_ns().min(400_000_000),
        interval_ns: 1_000_000,
        pool: 10,
        seed: s,
        per_secret_noise: false,
    }
}

/// `aegis evaluate` then `aegis overhead` for one (app, mechanism) at
/// collection seed `seed + r`, with a span around each layer call.
fn evaluate(
    cx: &mut Cx,
    plan: &DefensePlan,
    app: &dyn SecretApp,
    mechanism: MechanismChoice,
    seed: u64,
    r: u64,
) -> Result<Evaluation, String> {
    let cs = seed.wrapping_add(r);
    let err = |e: aegis::AegisError| e.to_string();

    let (mut host, vm) = cx.trace.timed("microarch.host_new", || template(seed))?;
    let core = host.core_of(vm, 0).map_err(|e| e.to_string())?;
    let events = host.core(core).catalog().attack_events().to_vec();
    let cfg = collect_cfg(app, cs);
    let clean = cx
        .trace
        .timed("sev.collect_clean", || {
            Collector::for_traces(cfg).dataset(&mut host, vm, 0, app, &events, None)
        })
        .map_err(err)?;
    let attacker = cx.trace.timed("attack.train", || {
        ClassifierAttack::train(&clean, TrainConfig::default(), cs)
    });
    let deployment = DefenseDeployment::new(plan, mechanism);
    let mut victim = cfg;
    victim.seed = cs ^ 0xc11;
    let defended = cx
        .trace
        .timed("sev.collect_defended", || {
            Collector::for_traces(victim).dataset(&mut host, vm, 0, app, &events, Some(&deployment))
        })
        .map_err(err)?;
    let defended_acc = cx
        .trace
        .timed("attack.score", || attacker.accuracy(&defended));

    let (mut host, vm) = cx.trace.timed("microarch.host_new", || template(seed))?;
    let mut rng = StdRng::seed_from_u64(cs ^ 0x0f0f);
    let (mut baseline, mut defended_run) = ((0.0, 0.0), (0.0, 0.0));
    for i in 0..OVERHEAD_RUNS {
        let run = app.sample_plan(i % app.n_secrets(), &mut rng);
        let b = cx
            .trace
            .timed("sev.measure_run", || {
                measure_app_run(&mut host, vm, 0, run.clone(), None, i as u64)
            })
            .map_err(err)?;
        let d = cx
            .trace
            .timed("sev.measure_run", || {
                measure_app_run(&mut host, vm, 0, run, Some(&deployment), i as u64)
            })
            .map_err(err)?;
        let n = OVERHEAD_RUNS as f64;
        baseline.0 += b.latency_ns as f64 / n;
        baseline.1 += b.cpu_usage / n;
        defended_run.0 += d.latency_ns as f64 / n;
        defended_run.1 += d.cpu_usage / n;
    }
    let traces = clean.len() + defended.len();
    Ok(Evaluation {
        clean_acc: attacker.curve.final_val_acc(),
        defended_acc,
        baseline,
        defended: defended_run,
        traces,
        sim_ns: traces as f64 * cfg.window_ns.min(app.window_ns()) as f64,
    })
}
