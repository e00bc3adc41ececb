//! `offline-plan`: the customer's template-server stage — `aegis
//! offline` (non-thorough) for each case-study app, each on a fresh
//! template host. One job plans all four apps for one plan seed.

use super::{app, digest, secs, template, Cx, Workload, ARCH};
use aegis::fuzzer::{cluster_gadgets, covering_set, EventFuzzer, FuzzerConfig, GadgetStats};
use aegis::isa::IsaCatalog;
use aegis::microarch::{Core, EventCatalog, InterferenceConfig, ResponseMatrix};
use aegis::obfuscator::GadgetStack;
use aegis::profiler::{rank_events, warmup_profile, RankConfig, WarmupConfig};
use aegis::workloads::SecretApp;
use aegis::{AegisConfig, AegisPipeline, DefensePlan};
use std::time::Instant;

const APPS: [&str; 4] = ["keystroke", "website", "dnn", "crypto"];

/// Plan seeds cycle over `seed, seed + 1, seed + 2`.
const PLAN_SEEDS: u64 = 3;

pub struct OfflinePlan {
    seed: u64,
}

impl OfflinePlan {
    pub fn new(seed: u64) -> Self {
        OfflinePlan { seed }
    }
}

impl OfflinePlan {
    /// Plans every app for plan seed `p`, through the stage-by-stage
    /// replay when `replay` is set, else through the library pipeline.
    fn plan_all(&self, cx: &mut Cx, p: u64, replay: bool) {
        for name in APPS {
            let app = app(name, p);
            let cfg = cli_config(p);
            let plan = if replay {
                replay_profile(cx, app.as_ref(), &cfg, p)
            } else {
                template(p).and_then(|(mut host, vm)| {
                    AegisPipeline::offline(&mut host, vm, 0, app.as_ref(), &cfg)
                        .map_err(|e| e.to_string())
                })
            };
            record(cx, name, p, plan);
        }
    }
}

impl Workload for OfflinePlan {
    fn setup(&mut self, cx: &mut Cx) -> Result<(), String> {
        let seed = self.seed;
        cx.trace.timed("setup.catalogs", || {
            EventCatalog::shared(ARCH);
            ResponseMatrix::shared(ARCH);
            for j in 0..PLAN_SEEDS {
                IsaCatalog::shared(ARCH.vendor(), seed.wrapping_add(j));
            }
        });
        // The warm-up op always takes the library's own pipeline, so in a
        // traced child its digests pin the stage-by-stage replay of the
        // same keys in job 0.
        let span = cx.trace.begin("setup.warmup_op");
        self.plan_all(cx, seed, false);
        cx.trace.end(span);
        Ok(())
    }

    fn job(&mut self, k: usize, cx: &mut Cx) -> Vec<f64> {
        let p = self.seed.wrapping_add(k as u64 % PLAN_SEEDS);
        let t0 = Instant::now();
        let span = cx.trace.begin("op");
        self.plan_all(cx, p, cx.trace.enabled());
        cx.trace.end(span);
        vec![secs(t0)]
    }
}

/// The configuration `aegis offline --seed p` (without `--thorough`)
/// builds.
pub(super) fn cli_config(p: u64) -> AegisConfig {
    AegisConfig::builder()
        .warmup(WarmupConfig {
            probe_ns: 3_000_000,
            passes: 3,
            ..WarmupConfig::default()
        })
        .rank(RankConfig {
            reps_per_secret: 2,
            window_ns: 80_000_000,
            interval_ns: 10_000_000,
            seed: p,
        })
        .fuzzer(FuzzerConfig {
            candidates_per_event: 150,
            confirm_reps: 10,
            seed: p,
            ..FuzzerConfig::default()
        })
        .fuzz_top_events(10)
        .isa_seed(p)
        .build()
        .expect("the CLI configuration is valid")
}

/// `ServicePlane::profile`, stage by stage through the layers' public
/// functions, with a span around each call.
fn replay_profile(
    cx: &mut Cx,
    app: &dyn SecretApp,
    cfg: &AegisConfig,
    p: u64,
) -> Result<DefensePlan, String> {
    let (mut host, vm) = cx.trace.timed("microarch.host_new", || template(p))?;
    let warmup = cx
        .trace
        .timed("profiler.warmup", || {
            warmup_profile(&mut host, vm, 0, app, &cfg.warmup)
        })
        .map_err(|e| e.to_string())?;
    let rankings = cx
        .trace
        .timed("profiler.rank", || {
            rank_events(&mut host, vm, 0, app, &warmup.vulnerable, &cfg.rank)
        })
        .map_err(|e| e.to_string())?;
    let arch = host.arch();
    let (isa, mut core) = cx.trace.timed("microarch.core_new", || {
        let mut core = Core::new(arch, cfg.fuzzer.seed);
        core.set_interference(InterferenceConfig::isolated());
        (IsaCatalog::shared(arch.vendor(), cfg.isa_seed), core)
    });
    let targets: Vec<_> = rankings
        .iter()
        .take(cfg.fuzz_top_events)
        .map(|r| r.event)
        .collect();
    let mut outcome = cx.trace.timed("fuzzer.run", || {
        EventFuzzer::new(cfg.fuzzer).run(&isa, &mut core, &targets)
    });
    cx.add("fuzzer.plans", 1.0);
    cx.add(
        "fuzzer.gadgets_tested",
        outcome.report.gadgets_tested as f64,
    );
    let confirmed: usize = outcome.per_event.iter().map(|e| e.confirmed.len()).sum();
    cx.add("fuzzer.confirmed", confirmed as f64);
    let (gadget_stats, covering) = cx.trace.timed("fuzzer.cover", || {
        let stats = GadgetStats::from_events(&outcome.per_event);
        cluster_gadgets(&mut outcome);
        (stats, covering_set(&outcome.per_event))
    });
    let stack = cx.trace.timed("obfuscator.calibrate", || {
        core.reset_cache();
        GadgetStack::from_covering(&isa, &mut core, &covering)
    });
    Ok(DefensePlan {
        template_arch: arch,
        vulnerable_events: warmup.vulnerable,
        rankings,
        covering,
        stack,
        fuzz_report: outcome.report,
        gadget_stats,
    })
}

/// Checks a plan's invariants and records its digest. The fuzz report's
/// wall-clock timings are left out of the digest; everything else in the
/// plan is a pure function of the inputs.
fn record(cx: &mut Cx, name: &str, p: u64, plan: Result<DefensePlan, String>) {
    let outcome = plan.and_then(|plan| {
        if plan.rankings.len() != plan.vulnerable_events.len() {
            return Err("rankings do not cover the vulnerable events".into());
        }
        if plan
            .rankings
            .windows(2)
            .any(|w| w[0].mi_bits < w[1].mi_bits)
        {
            return Err("rankings are not sorted by mutual information".into());
        }
        if plan.covering.len() > plan.covered_events() {
            return Err(format!(
                "{} covering gadgets for {} covered events",
                plan.covering.len(),
                plan.covered_events()
            ));
        }
        Ok(digest(&(
            plan.template_arch,
            &plan.vulnerable_events,
            &plan.rankings,
            &plan.covering,
            &plan.stack,
            &plan.gadget_stats,
            plan.fuzz_report.usable_instructions,
            plan.fuzz_report.gadgets_tested,
        )))
    });
    cx.op(format!("plan/{name}/p{p}"), outcome);
}
