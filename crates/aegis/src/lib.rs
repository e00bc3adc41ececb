//! # aegis
//!
//! A reproduction of **Aegis** (DSN 2024): a unified framework protecting
//! confidential VMs from Hardware Performance Counter side channels with
//! provable differential-privacy guarantees and minimal overhead.
//!
//! Aegis has three modules, all reproduced here over a full simulated
//! substrate (synthetic ISA, micro-architectural HPC simulator, SEV-style
//! host, secret-dependent workloads, from-scratch ML attackers):
//!
//! 1. **Application Profiler** (offline) — warm-up profiling plus
//!    mutual-information ranking of vulnerable HPC events;
//! 2. **Event Fuzzer** (offline) — grammar-based fuzzing for instruction
//!    gadgets that perturb those events, confirmed and reduced to a
//!    minimum covering set;
//! 3. **Event Obfuscator** (online) — in-guest injection of gadget noise
//!    governed by the Laplace (ε-DP) or d* ((d*,2ε)-privacy) mechanism.
//!
//! ## Quickstart
//!
//! ```no_run
//! use aegis::{AegisConfig, AegisPipeline, DefenseDeployment, ObsLevel};
//! use aegis::sev::{Host, SevMode};
//! use aegis::microarch::MicroArch;
//! use aegis::workloads::KeystrokeApp;
//!
//! # fn main() -> Result<(), aegis::AegisError> {
//! // Validated configuration: ε = 1 Laplace noise, 4 worker threads,
//! // in-memory observability. `apply_runtime` installs the thread and
//! // observability settings process-wide.
//! let cfg = AegisConfig::builder()
//!     .epsilon(1.0)
//!     .threads(4)
//!     .obs(ObsLevel::Summary)
//!     .build()?;
//! cfg.apply_runtime();
//!
//! // Offline: profile + fuzz on a template host you control.
//! let mut template = Host::new(MicroArch::AmdEpyc7252, 2, 3);
//! let vm = template.launch_vm(1, SevMode::SevSnp)?;
//! let app = KeystrokeApp::new();
//! let plan = AegisPipeline::offline(&mut template, vm, 0, &app, &cfg)?;
//!
//! // Online: deploy the obfuscator inside the production VM.
//! let deployment = DefenseDeployment::new(&plan, cfg.mechanism);
//! deployment.deploy(&mut template, vm, 0, 42)?;
//! # Ok(())
//! # }
//! ```

mod error;
mod evaluate;
pub mod fleet;
mod pipeline;
mod plan;
pub mod service;
pub mod sweep;

pub use error::AegisError;
pub use evaluate::{
    measure_app_run, Attacker, ClassifierAttack, CollectConfig, Collector, MeaAttack, MeaConfig,
    MeaRun, MeaRunLog, RunMeasurement, BLANK,
};
pub use fleet::{
    cross_tenant_accuracy, policy_attack_table, storm_schedule, CrossTenantConfig, FleetConfig,
    FleetHealth, FleetReport, FleetSupervisor, FleetTopology, HostState, Placement,
    PlacementPolicy, PolicyAttackCell, Scheduler, StormHit, TenantOutcome, TenantStatus,
};
pub use pipeline::{
    AegisConfig, AegisConfigBuilder, AegisPipeline, DefenseDeployment, Deployment, MechanismChoice,
};
pub use plan::DefensePlan;
pub use service::{
    AegisService, EpsilonLedger, HealthReport, ServiceConfig, ServiceHandle, ServiceReport,
    SessionHealth, SessionId, SessionReport, Status, SupervisorConfig,
};
pub use sweep::{SweepCell, SweepConfig, SweepOutcome};

// Observability: re-export the level type for builder callers, and the
// whole crate for spans/metrics/summary rendering.
pub use aegis_obs::ObsLevel;

// Fault injection: re-export the plan type for builder callers, and the
// whole crate for site tags and streams.
pub use aegis_faults as faults;
pub use aegis_faults::{FaultPlan, FaultStream};

// Substrate re-exports, namespaced for downstream convenience.
pub use aegis_attack as attack;
pub use aegis_dp as dp;
pub use aegis_fuzzer as fuzzer;
pub use aegis_isa as isa;
pub use aegis_microarch as microarch;
pub use aegis_obfuscator as obfuscator;
pub use aegis_obs as obs;
pub use aegis_par as par;
pub use aegis_perf as perf;
pub use aegis_profiler as profiler;
pub use aegis_sev as sev;
pub use aegis_workloads as workloads;
