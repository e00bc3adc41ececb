//! Shared experiment scenarios: hosts, case-study applications, and the
//! size presets for full vs quick runs.

use aegis::fuzzer::FuzzerConfig;
use aegis::microarch::{EventId, MicroArch};
use aegis::par::ArtifactCache;
use aegis::profiler::{RankConfig, WarmupConfig};
use aegis::sev::{Host, SevMode, VmId};
use aegis::workloads::{DnnZoo, KeystrokeApp, SecretApp, WebsiteCatalog};
use aegis::{
    AegisConfig, AegisPipeline, Attacker, CollectConfig, DefenseDeployment, DefensePlan, MeaConfig,
    MechanismChoice,
};
use std::collections::HashMap;
use std::sync::Mutex;

/// Global experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Shrink dataset sizes for a fast smoke run.
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
}

impl ExpConfig {
    /// Full-size configuration.
    pub fn full() -> Self {
        ExpConfig {
            quick: false,
            seed: 7,
        }
    }

    /// Quick smoke-run configuration.
    pub fn quick() -> Self {
        ExpConfig {
            quick: true,
            seed: 7,
        }
    }

    /// Collection settings for the website fingerprinting attack.
    pub fn wfa_collect(&self) -> CollectConfig {
        CollectConfig {
            traces_per_secret: if self.quick { 6 } else { 10 },
            window_ns: if self.quick { 300_000_000 } else { 400_000_000 },
            interval_ns: 1_000_000,
            pool: 20,
            seed: self.seed,
            per_secret_noise: false,
        }
    }

    /// Collection settings for the keystroke sniffing attack.
    pub fn ksa_collect(&self) -> CollectConfig {
        CollectConfig {
            traces_per_secret: if self.quick { 12 } else { 24 },
            window_ns: self.ksa_window_ns(),
            interval_ns: 2_000_000,
            pool: 25,
            seed: self.seed,
            per_secret_noise: false,
        }
    }

    /// Keystroke window (compressed from the paper's 3 s to keep the
    /// simulated-time budget tractable; the learning problem is the same).
    pub fn ksa_window_ns(&self) -> u64 {
        300_000_000
    }

    /// Collection settings for the model extraction attack.
    pub fn mea_collect(&self) -> MeaConfig {
        MeaConfig {
            runs_per_model: if self.quick { 3 } else { 5 },
            interval_ns: 1_000_000,
            pad_ns: 20_000_000,
            seed: self.seed,
        }
    }

    /// Defended test-set size (traces per secret) for the ε sweeps.
    pub fn sweep_traces_per_secret(&self, n_secrets: usize) -> usize {
        let budget = if self.quick { 90 } else { 240 };
        (budget / n_secrets).max(2)
    }

    /// ε grid of Fig. 9a: `2^-3 .. 2^3`.
    pub fn eps_grid_fig9a(&self) -> Vec<f64> {
        let exps: &[i32] = if self.quick {
            &[-3, 0, 3]
        } else {
            &[-3, -2, -1, 0, 1, 2, 3]
        };
        exps.iter().map(|&e| 2f64.powi(e)).collect()
    }

    /// ε grid of Fig. 9b: `2^-8 .. 2^3`.
    pub fn eps_grid_fig9b(&self) -> Vec<f64> {
        let exps: &[i32] = if self.quick {
            &[-8, -4, 0, 3]
        } else {
            &[-8, -7, -6, -5, -4, -3, -2, -1, 0, 1, 2, 3]
        };
        exps.iter().map(|&e| 2f64.powi(e)).collect()
    }
}

/// Creates a host of the paper's SEV testbed model with one launched VM.
pub fn new_host(seed: u64) -> (Host, VmId) {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, seed);
    let vm = host
        .launch_vm(1, SevMode::SevSnp)
        .expect("host has free cores");
    (host, vm)
}

/// The website-fingerprinting application.
pub fn wfa_app(cfg: &ExpConfig) -> WebsiteCatalog {
    WebsiteCatalog::new(cfg.seed)
}

/// The keystroke-sniffing application (compressed window; see
/// [`ExpConfig::ksa_window_ns`]).
pub fn ksa_app(cfg: &ExpConfig) -> KeystrokeApp {
    KeystrokeApp::with_window(cfg.ksa_window_ns())
}

/// The model-extraction zoo.
pub fn mea_zoo(cfg: &ExpConfig) -> DnnZoo {
    DnnZoo::new(cfg.seed)
}

/// Collects (or reloads) `A`'s *clean* data from `target`, memoized on
/// disk under `results/cache/` in the columnar `.acs` format — a warm
/// hit is one bulk read of little-endian pages into pre-sized buffers.
/// Clean collection is a pure function of the inputs
/// [`Attacker::data_key`] fingerprints, so a hit is bit-identical to a
/// fresh collection. Disable with `AEGIS_NO_CACHE=1`.
pub fn clean_cached<A: Attacker>(
    host_seed: u64,
    host: &Host,
    vm: VmId,
    vcpu: usize,
    target: &A::Target,
    events: &[EventId],
    collect: &A::Collect,
) -> A::Data {
    let cache = ArtifactCache::default_location();
    let key = A::data_key(host_seed, target, events, collect, None);
    cache.get_col(&key).unwrap_or_else(|| {
        let data = A::collect(host, vm, vcpu, target, events, collect, None)
            .expect("clean collection uses validated ids");
        let _ = cache.put_col(&key, &data);
        data
    })
}

static PLAN_CACHE: Mutex<Option<HashMap<String, DefensePlan>>> = Mutex::new(None);

/// Runs the Aegis offline pipeline for `app` (cached per app name for the
/// lifetime of the process: the plan is a one-time offline artifact in
/// the paper as well).
pub fn plan_for(cfg: &ExpConfig, app: &dyn SecretApp) -> DefensePlan {
    let key = format!("{}-{}", app.name(), cfg.quick);
    if let Some(plan) = PLAN_CACHE
        .lock()
        .unwrap()
        .get_or_insert_with(HashMap::new)
        .get(&key)
    {
        return plan.clone();
    }
    let (mut host, vm) = new_host(cfg.seed ^ 0x0ff1);
    let pipeline_cfg = AegisConfig {
        warmup: WarmupConfig {
            probe_ns: 2_000_000,
            passes: 2,
            ..WarmupConfig::default()
        },
        rank: RankConfig {
            reps_per_secret: 2,
            window_ns: 60_000_000,
            interval_ns: 10_000_000,
            seed: cfg.seed,
        },
        fuzzer: FuzzerConfig {
            candidates_per_event: if cfg.quick { 100 } else { 250 },
            confirm_reps: 10,
            seed: cfg.seed,
            ..FuzzerConfig::default()
        },
        fuzz_top_events: if cfg.quick { 8 } else { 16 },
        isa_seed: cfg.seed,
        ..AegisConfig::default()
    };
    let plan = AegisPipeline::offline(&mut host, vm, 0, app, &pipeline_cfg)
        .expect("offline pipeline succeeds");
    PLAN_CACHE
        .lock()
        .unwrap()
        .get_or_insert_with(HashMap::new)
        .insert(key, plan.clone());
    plan
}

/// Builds a deployment of the cached plan with the given mechanism.
pub fn deployment_for(
    cfg: &ExpConfig,
    app: &dyn SecretApp,
    mechanism: MechanismChoice,
) -> DefenseDeployment {
    DefenseDeployment::new(&plan_for(cfg, app), mechanism)
}
