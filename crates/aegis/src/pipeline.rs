//! The unified Aegis pipeline: offline analysis and online deployment.

use crate::error::AegisError;
use crate::plan::DefensePlan;
use crate::service::{AegisService, ServiceConfig};
use aegis_dp::{DStarMechanism, LaplaceMechanism, NoiseMechanism};
use aegis_faults::FaultPlan;
use aegis_fuzzer::FuzzerConfig;
use aegis_obfuscator::{
    ConstantOutput, GadgetStack, Obfuscator, ObfuscatorConfig, SecretConstantNoise,
    UniformRandomNoise,
};
use aegis_obs::{self as obs, ObsLevel};
use aegis_par::fingerprint;
use aegis_profiler::{RankConfig, WarmupConfig};
use aegis_sev::{Host, HostError, VmId};
use aegis_workloads::SecretApp;
use serde::{Deserialize, Serialize};

/// Configuration of the full offline pipeline.
///
/// Construct with [`AegisConfig::builder`] for validated settings, with
/// `AegisConfig::default()`, or with a struct literal plus functional
/// update (`AegisConfig { fuzz_top_events: 8, ..Default::default() }`) —
/// new fields may be added over time, so exhaustive literals are not
/// forward-compatible.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AegisConfig {
    /// Warm-up profiling settings.
    pub warmup: WarmupConfig,
    /// Event-ranking settings.
    pub rank: RankConfig,
    /// Event Fuzzer settings.
    pub fuzzer: FuzzerConfig,
    /// Number of top-ranked events to fuzz (the paper fuzzes every
    /// vulnerable event; bounding this trades coverage for offline time).
    pub fuzz_top_events: usize,
    /// ISA-specification seed.
    pub isa_seed: u64,
    /// The mechanism deployed by default ([`AegisConfigBuilder::epsilon`]
    /// adjusts its privacy budget).
    pub mechanism: MechanismChoice,
    /// Worker threads for the parallel stages; `0` means auto
    /// (`AEGIS_THREADS` env, then hardware parallelism). Takes effect via
    /// [`AegisConfig::apply_runtime`].
    pub threads: usize,
    /// Observability level; `None` defers to the `AEGIS_OBS` environment
    /// variable (then `summary`). Takes effect via
    /// [`AegisConfig::apply_runtime`].
    pub obs: Option<ObsLevel>,
    /// Fault-injection plan; `None` defers to the `AEGIS_FAULTS`
    /// environment variable (then no faults). Takes effect via
    /// [`AegisConfig::apply_runtime`].
    pub faults: Option<FaultPlan>,
    /// Trace-collection settings, consumed through
    /// [`Collector`](crate::Collector).
    pub collect: crate::evaluate::CollectConfig,
    /// Model-extraction collection settings, consumed through
    /// [`Collector`](crate::Collector).
    pub mea: crate::evaluate::MeaConfig,
}

impl Default for AegisConfig {
    fn default() -> Self {
        AegisConfig {
            warmup: WarmupConfig::default(),
            rank: RankConfig::default(),
            fuzzer: FuzzerConfig::default(),
            fuzz_top_events: 24,
            isa_seed: 7,
            mechanism: MechanismChoice::Laplace { epsilon: 1.0 },
            threads: 0,
            obs: None,
            faults: None,
            collect: crate::evaluate::CollectConfig::default(),
            mea: crate::evaluate::MeaConfig::default(),
        }
    }
}

impl AegisConfig {
    /// Starts a validated builder from the defaults.
    pub fn builder() -> AegisConfigBuilder {
        AegisConfigBuilder::default()
    }

    /// Applies the runtime-affecting settings to the process: the worker
    /// pool size ([`aegis_par::set_threads`]) and the observability level
    /// ([`aegis_obs::set_level`]). Kept separate from
    /// [`AegisConfigBuilder::build`] so constructing a config has no side
    /// effects; binaries call this once after argument parsing.
    pub fn apply_runtime(&self) {
        aegis_par::set_threads(self.threads);
        obs::set_level(self.obs);
        aegis_faults::set_plan(self.faults);
    }
}

/// Builder for [`AegisConfig`] with validation at [`build`
/// time](AegisConfigBuilder::build).
#[derive(Debug, Clone, Default)]
pub struct AegisConfigBuilder {
    cfg: AegisConfig,
    epsilon: Option<f64>,
    threads: Option<usize>,
}

impl AegisConfigBuilder {
    /// Sets the privacy budget ε of the configured mechanism. Fails at
    /// build time if ε ≤ 0 or the mechanism takes no budget.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = Some(epsilon);
        self
    }

    /// Selects the deployed mechanism.
    pub fn mechanism(mut self, mechanism: MechanismChoice) -> Self {
        self.cfg.mechanism = mechanism;
        self
    }

    /// Sets the worker-thread count (≥ 1; omit for auto-detection).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the observability level.
    pub fn obs(mut self, level: ObsLevel) -> Self {
        self.cfg.obs = Some(level);
        self
    }

    /// Installs a fault-injection plan (use [`FaultPlan::none`] to pin
    /// faults off regardless of the `AEGIS_FAULTS` environment).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = Some(plan);
        self
    }

    /// Replaces the warm-up profiling settings.
    pub fn warmup(mut self, warmup: WarmupConfig) -> Self {
        self.cfg.warmup = warmup;
        self
    }

    /// Replaces the event-ranking settings.
    pub fn rank(mut self, rank: RankConfig) -> Self {
        self.cfg.rank = rank;
        self
    }

    /// Replaces the Event Fuzzer settings.
    pub fn fuzzer(mut self, fuzzer: FuzzerConfig) -> Self {
        self.cfg.fuzzer = fuzzer;
        self
    }

    /// Sets how many top-ranked events the fuzzer targets.
    pub fn fuzz_top_events(mut self, n: usize) -> Self {
        self.cfg.fuzz_top_events = n;
        self
    }

    /// Sets the ISA-specification seed.
    pub fn isa_seed(mut self, seed: u64) -> Self {
        self.cfg.isa_seed = seed;
        self
    }

    /// Replaces the trace-collection settings (see
    /// [`Collector`](crate::Collector)).
    pub fn collect(mut self, collect: crate::evaluate::CollectConfig) -> Self {
        self.cfg.collect = collect;
        self
    }

    /// Replaces the MEA-collection settings (see
    /// [`Collector`](crate::Collector)).
    pub fn mea(mut self, mea: crate::evaluate::MeaConfig) -> Self {
        self.cfg.mea = mea;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AegisError::Config`] when ε ≤ 0 (or is set on a
    /// mechanism without a privacy budget), or an explicit thread count
    /// is 0.
    pub fn build(self) -> Result<AegisConfig, AegisError> {
        let mut cfg = self.cfg;
        if let Some(threads) = self.threads {
            if threads == 0 {
                return Err(AegisError::config(
                    "threads",
                    "must be at least 1 (omit the call for auto-detection)",
                ));
            }
            cfg.threads = threads;
        }
        if let Some(eps) = self.epsilon {
            if !(eps > 0.0 && eps.is_finite()) {
                return Err(AegisError::config(
                    "epsilon",
                    format!("privacy budget must be a positive finite number, got {eps}"),
                ));
            }
            cfg.mechanism = match cfg.mechanism {
                MechanismChoice::Laplace { .. } => MechanismChoice::Laplace { epsilon: eps },
                MechanismChoice::DStar { .. } => MechanismChoice::DStar { epsilon: eps },
                other => {
                    return Err(AegisError::config(
                        "epsilon",
                        format!("mechanism {} takes no privacy budget", other.label()),
                    ))
                }
            };
        }
        match cfg.mechanism {
            MechanismChoice::Laplace { epsilon } | MechanismChoice::DStar { epsilon }
                if !(epsilon > 0.0 && epsilon.is_finite()) =>
            {
                return Err(AegisError::config(
                    "mechanism",
                    format!("privacy budget must be a positive finite number, got {epsilon}"),
                ));
            }
            _ => {}
        }
        Ok(cfg)
    }
}

/// The DP mechanism (or Section IX baseline) selected for deployment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MechanismChoice {
    /// ε-DP Laplace noise (paper's operating point: ε = 2⁰).
    Laplace {
        /// Privacy budget.
        epsilon: f64,
    },
    /// (d*, 2ε)-private correlated noise (paper's operating point: ε = 2³).
    DStar {
        /// Privacy budget.
        epsilon: f64,
    },
    /// Uniform random noise in `[0, bound]` (no privacy guarantee).
    UniformRandom {
        /// Upper bound, in normalized units.
        bound: f64,
    },
    /// Fill the observation to a constant peak.
    ConstantOutput {
        /// The fill level, in normalized units.
        peak: f64,
    },
    /// A deterministic noise level drawn per deployment seed — the
    /// Section IX-B countermeasure against trace-averaging attackers.
    SecretConstant {
        /// Upper bound of the per-seed level, in normalized units.
        bound: f64,
    },
}

impl MechanismChoice {
    /// Instantiates the mechanism.
    pub fn build(&self, seed: u64) -> Box<dyn NoiseMechanism> {
        match *self {
            MechanismChoice::Laplace { epsilon } => Box::new(LaplaceMechanism::new(epsilon, seed)),
            MechanismChoice::DStar { epsilon } => Box::new(DStarMechanism::new(epsilon, seed)),
            MechanismChoice::UniformRandom { bound } => {
                Box::new(UniformRandomNoise::new(bound, seed))
            }
            MechanismChoice::ConstantOutput { peak } => Box::new(ConstantOutput::new(peak)),
            MechanismChoice::SecretConstant { bound } => {
                Box::new(SecretConstantNoise::new(bound, seed))
            }
        }
    }

    /// The ε a single deployment epoch of this mechanism releases, under
    /// the conservative sequential-composition reading the service
    /// plane's ledger uses. The d* mechanism provides (d*, 2ε)-privacy,
    /// so an epoch costs 2ε; the non-DP baselines (uniform random,
    /// constant output, secret constant) make no privacy claim and draw
    /// nothing from the budget.
    pub fn epsilon_cost(&self) -> f64 {
        match *self {
            MechanismChoice::Laplace { epsilon } => epsilon,
            MechanismChoice::DStar { epsilon } => 2.0 * epsilon,
            MechanismChoice::UniformRandom { .. }
            | MechanismChoice::ConstantOutput { .. }
            | MechanismChoice::SecretConstant { .. } => 0.0,
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match *self {
            MechanismChoice::Laplace { epsilon } => format!("laplace(eps={epsilon})"),
            MechanismChoice::DStar { epsilon } => format!("dstar(eps={epsilon})"),
            MechanismChoice::UniformRandom { bound } => format!("random(bound={bound})"),
            MechanismChoice::ConstantOutput { peak } => format!("constant(peak={peak})"),
            MechanismChoice::SecretConstant { bound } => format!("secret-constant(bound={bound})"),
        }
    }
}

/// A typed receipt for a completed deployment: which plan went where,
/// under which mechanism, and what the epoch cost in ε. Returned by
/// [`DefenseDeployment::deploy`], [`DefenseDeployment::deploy_all`], and
/// `ServiceHandle::reload`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Deployment {
    /// Content fingerprint of the deployed gadget stack
    /// ([`DefenseDeployment::plan_id`]).
    pub plan_id: u64,
    /// The protected VM.
    pub vm: VmId,
    /// The vCPUs that received an obfuscator.
    pub vcpus: Vec<usize>,
    /// Mechanism label, e.g. `laplace(eps=1)`.
    pub mechanism: String,
    /// ε this deployment epoch releases per protected vCPU
    /// ([`MechanismChoice::epsilon_cost`]); in service mode this is what
    /// the tenant's ledger was charged.
    pub epsilon_charged: f64,
    /// Base seed of the deployment's noise streams.
    pub seed: u64,
}

/// A deployable defense: the calibrated gadget stack plus the chosen
/// mechanism. Build one per protected vCPU with [`DefenseDeployment::deploy`],
/// or mint per-window obfuscators for evaluation.
#[derive(Debug, Clone)]
pub struct DefenseDeployment {
    /// The injection unit from the offline plan.
    pub stack: GadgetStack,
    /// Selected mechanism.
    pub mechanism: MechanismChoice,
    /// Obfuscator runtime settings.
    pub obfuscator: ObfuscatorConfig,
}

impl DefenseDeployment {
    /// Creates a deployment from an offline plan.
    pub fn new(plan: &DefensePlan, mechanism: MechanismChoice) -> Self {
        DefenseDeployment {
            stack: plan.stack.clone(),
            mechanism,
            obfuscator: ObfuscatorConfig::default(),
        }
    }

    /// Builds a fresh obfuscator instance (fresh noise stream).
    pub fn make_obfuscator(&self, seed: u64) -> Obfuscator {
        Obfuscator::with_seed(
            self.stack.clone(),
            self.mechanism.build(seed),
            self.obfuscator,
            seed,
        )
    }

    /// Content fingerprint of the deployed gadget stack — stable across
    /// runs, so receipts and ledgers can name a plan without carrying it.
    pub fn plan_id(&self) -> u64 {
        fingerprint(&self.stack)
    }

    /// Installs the obfuscator on the protected vCPU — the online stage —
    /// and returns the typed receipt.
    ///
    /// # Errors
    ///
    /// Returns [`AegisError::Host`] for invalid ids.
    pub fn deploy(
        &self,
        host: &mut Host,
        vm: VmId,
        vcpu: usize,
        seed: u64,
    ) -> Result<Deployment, AegisError> {
        host.attach_injector(vm, vcpu, Box::new(self.make_obfuscator(seed)))?;
        Ok(Deployment {
            plan_id: self.plan_id(),
            vm,
            vcpus: vec![vcpu],
            mechanism: self.mechanism.label(),
            epsilon_charged: self.mechanism.epsilon_cost(),
            seed,
        })
    }

    /// Installs an independent obfuscator on *every* vCPU of the VM — the
    /// deployment for multi-vCPU guests (the paper's victim VM has four
    /// vCPUs; protected applications may be scheduled onto any of them).
    /// Each vCPU gets its own noise stream derived from `seed`. The
    /// receipt lists every covered vCPU.
    ///
    /// # Errors
    ///
    /// Returns [`AegisError::Host`] for an unknown VM.
    pub fn deploy_all(
        &self,
        host: &mut Host,
        vm: VmId,
        seed: u64,
    ) -> Result<Deployment, AegisError> {
        let mut vcpu = 0;
        loop {
            match host.attach_injector(
                vm,
                vcpu,
                Box::new(self.make_obfuscator(seed ^ ((vcpu as u64) << 32))),
            ) {
                Ok(()) => vcpu += 1,
                Err(HostError::UnknownVcpu(..)) if vcpu > 0 => {
                    return Ok(Deployment {
                        plan_id: self.plan_id(),
                        vm,
                        vcpus: (0..vcpu).collect(),
                        mechanism: self.mechanism.label(),
                        epsilon_charged: self.mechanism.epsilon_cost(),
                        seed,
                    })
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// The Aegis offline pipeline.
#[derive(Debug, Clone, Default)]
pub struct AegisPipeline;

impl AegisPipeline {
    /// Runs the full offline stage on a *template host*: warm-up
    /// profiling, mutual-information ranking, event fuzzing over the
    /// top-ranked events, gadget clustering and covering-set extraction,
    /// and stack calibration.
    ///
    /// This is a thin start → profile → shutdown sequence over the
    /// service plane ([`AegisService`]): batch profiling and service-mode
    /// profiling execute the exact same stages, so the two paths cannot
    /// drift.
    ///
    /// # Errors
    ///
    /// Returns [`AegisError::Host`] for invalid vm/vcpu ids, and
    /// [`AegisError::Uncovered`] when fuzzing confirms no gadget for any
    /// of the top-ranked events.
    pub fn offline(
        template: &mut Host,
        vm: VmId,
        vcpu: usize,
        app: &dyn SecretApp,
        cfg: &AegisConfig,
    ) -> Result<DefensePlan, AegisError> {
        let _pipeline = obs::span("pipeline.offline");
        let mut svc = AegisService::start(template, ServiceConfig::new(*cfg))?;
        let plan = svc.profile(vm, vcpu, app)?;
        svc.shutdown()?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegis_microarch::MicroArch;
    use aegis_sev::SevMode;
    use aegis_workloads::KeystrokeApp;

    fn quick_cfg() -> AegisConfig {
        AegisConfig {
            warmup: WarmupConfig {
                probe_ns: 2_000_000,
                passes: 2,
                ..WarmupConfig::default()
            },
            rank: RankConfig {
                reps_per_secret: 3,
                window_ns: 60_000_000,
                interval_ns: 10_000_000,
                seed: 7,
            },
            fuzzer: FuzzerConfig {
                candidates_per_event: 60,
                confirm_reps: 8,
                ..FuzzerConfig::default()
            },
            fuzz_top_events: 6,
            ..AegisConfig::default()
        }
    }

    #[test]
    fn offline_pipeline_produces_a_covering_plan() {
        let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 3);
        let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
        let app = KeystrokeApp::new();
        let plan = AegisPipeline::offline(&mut host, vm, 0, &app, &quick_cfg()).unwrap();

        assert!(!plan.vulnerable_events.is_empty());
        assert_eq!(plan.rankings.len(), plan.vulnerable_events.len());
        // Rankings sorted descending.
        for w in plan.rankings.windows(2) {
            assert!(w[0].mi_bits >= w[1].mi_bits);
        }
        assert!(!plan.covering.is_empty(), "no covering gadgets found");
        assert!(plan.stack.unit_uops() >= 1.0);
        // Covering set is no larger than the covered events (paper: 43
        // gadgets for 137 events).
        assert!(plan.covering.len() <= plan.covered_events());
    }

    #[test]
    fn deployment_attaches_an_injector() {
        let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 3);
        let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
        let app = KeystrokeApp::new();
        let plan = AegisPipeline::offline(&mut host, vm, 0, &app, &quick_cfg()).unwrap();
        let deployment = DefenseDeployment::new(&plan, MechanismChoice::Laplace { epsilon: 1.0 });
        deployment.deploy(&mut host, vm, 0, 42).unwrap();
        // Injection shows up in the vCPU stats after some run time.
        host.reset_vm_stats(vm).unwrap();
        host.run(50_000_000);
        let stats = host.vcpu_stats(vm, 0).unwrap();
        assert!(stats.injected_uops > 0.0, "{stats:?}");
    }

    #[test]
    fn builder_validates_epsilon_and_threads() {
        let cfg = AegisConfig::builder()
            .epsilon(0.5)
            .threads(4)
            .obs(ObsLevel::Off)
            .fuzz_top_events(3)
            .build()
            .unwrap();
        assert_eq!(cfg.mechanism, MechanismChoice::Laplace { epsilon: 0.5 });
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.obs, Some(ObsLevel::Off));
        assert_eq!(cfg.fuzz_top_events, 3);

        // ε must be positive and finite.
        assert!(matches!(
            AegisConfig::builder().epsilon(0.0).build(),
            Err(AegisError::Config {
                field: "epsilon",
                ..
            })
        ));
        assert!(AegisConfig::builder().epsilon(f64::NAN).build().is_err());
        // ε on a budget-less mechanism is a contradiction.
        assert!(AegisConfig::builder()
            .mechanism(MechanismChoice::ConstantOutput { peak: 6.0 })
            .epsilon(1.0)
            .build()
            .is_err());
        // But ε routes to d* when selected.
        let cfg = AegisConfig::builder()
            .mechanism(MechanismChoice::DStar { epsilon: 8.0 })
            .epsilon(2.0)
            .build()
            .unwrap();
        assert_eq!(cfg.mechanism, MechanismChoice::DStar { epsilon: 2.0 });
        // An explicit thread count of zero is rejected; the field default
        // 0 (auto) is fine.
        assert!(matches!(
            AegisConfig::builder().threads(0).build(),
            Err(AegisError::Config {
                field: "threads",
                ..
            })
        ));
        assert_eq!(AegisConfig::builder().build().unwrap().threads, 0);
        // A bad budget smuggled in via .mechanism() is still caught.
        assert!(AegisConfig::builder()
            .mechanism(MechanismChoice::Laplace { epsilon: -1.0 })
            .build()
            .is_err());
    }

    #[test]
    fn default_config_builds_and_old_style_literals_update() {
        // Functional-update literals keep compiling as fields are added.
        let cfg = AegisConfig {
            fuzz_top_events: 8,
            ..AegisConfig::default()
        };
        assert_eq!(cfg.fuzz_top_events, 8);
        assert_eq!(cfg.threads, 0);
        assert!(cfg.obs.is_none());
        assert_eq!(
            AegisConfig::builder().build().unwrap(),
            AegisConfig::default()
        );
    }

    #[test]
    fn mechanism_labels_are_distinct() {
        let labels: Vec<String> = [
            MechanismChoice::Laplace { epsilon: 1.0 },
            MechanismChoice::DStar { epsilon: 1.0 },
            MechanismChoice::UniformRandom { bound: 1.0 },
            MechanismChoice::ConstantOutput { peak: 1.0 },
        ]
        .iter()
        .map(MechanismChoice::label)
        .collect();
        let mut unique = labels.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), labels.len());
    }
}
