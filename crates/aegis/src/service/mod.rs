//! The supervised defense-service plane.
//!
//! The paper's deployed defense is a *resident* system — a kernel
//! module/userspace daemon pair that must stay alive, healthy, and
//! within its DP noise budget for the whole life of a guest. This
//! module runs the obfuscator and profiler as long-lived supervised
//! services over the simulated host, with the lifecycle of a real CVM
//! init supervisor in deterministic sim time:
//!
//! - [`AegisService::start`] opens the plane on a host and returns a
//!   [`ServiceHandle`];
//! - [`ServiceHandle::attach`] deploys a protection plan for a tenant's
//!   guest, charging the tenant's ε account;
//! - [`ServiceHandle::run`] advances sim time, health-checking every
//!   session on a fixed grid; the watchdog restarts unhealthy daemons
//!   (bounded retries, exponential sim-time backoff), latching the
//!   guest's counters fail-closed while no injector is attached;
//! - [`ServiceHandle::reload`] hot-swaps a live session's plan — the
//!   old plan drains through its final interval, the new one attaches
//!   atomically at the boundary, and no sample is dropped;
//! - [`ServiceHandle::detach`] / [`ServiceHandle::shutdown`] end
//!   service cleanly.
//!
//! Every deployment epoch (attach, reload, restart) draws the
//! mechanism's ε from the tenant's [`EpsilonLedger`] account; a spent
//! budget refuses service fail-closed — the guest reads zeros and the
//! session reports [`Status::Exhausted`]. `AegisPipeline::offline` is a
//! thin start → profile → shutdown sequence over this same plane, so
//! the batch and service paths cannot drift.
//!
//! Internally the plane's state machine lives in `ServicePlane`,
//! which takes the host as an explicit parameter on every call instead
//! of borrowing it. [`ServiceHandle`] pairs one plane with an exclusive
//! host borrow (the single-host API above); `aegis::fleet` owns many
//! `(Host, ServicePlane)` pairs and drives them under one fleet
//! supervisor, sharing tenant ε accounts across hosts through
//! `LedgerSlot::Shared`.

mod ledger;
mod supervisor;

pub use ledger::{EpsilonLedger, LEDGER_KIND};
pub(crate) use ledger::{LedgerSlot, TenantLedgers};
pub use supervisor::{Status, SupervisorConfig};

use crate::error::AegisError;
use crate::pipeline::{AegisConfig, DefenseDeployment, Deployment};
use crate::plan::DefensePlan;
use aegis_faults::{self as faults, site, FaultPlan, FaultStream};
use aegis_fuzzer::{cluster_gadgets, covering_set, EventFuzzer, GadgetStats};
use aegis_isa::IsaCatalog;
use aegis_microarch::{Core, InterferenceConfig};
use aegis_obfuscator::Obfuscator;
use aegis_obs as obs;
use aegis_par::{derive_seed, ArtifactCache};
use aegis_profiler::{rank_events, warmup_profile};
use aegis_sev::{Host, ProtectionStatus, VmId, TICK_NS};
use aegis_workloads::SecretApp;
use std::path::PathBuf;
use supervisor::SessionState;

/// Seed stream tag: service seed → per-session seed (by session id).
const STREAM_SESSION: u64 = 0x20;
/// Seed stream tag: session seed → per-epoch obfuscator seed.
const STREAM_EPOCH: u64 = 0x21;

/// Identifier of a service session, minted by [`ServiceHandle::attach`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub u32);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Configuration of the service plane.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The pipeline configuration: mechanism, profiling/fuzzing
    /// settings, obs level, fault plan.
    pub aegis: AegisConfig,
    /// Watchdog and restart policy.
    pub supervisor: SupervisorConfig,
    /// ε provisioned per tenant on first contact (`f64::INFINITY` =
    /// unmetered).
    pub default_budget: f64,
    /// Directory for ledger persistence; `None` keeps the ledger in
    /// memory only.
    pub ledger_dir: Option<PathBuf>,
    /// Namespace for the persisted ledger record (different scopes are
    /// independent ledgers in the same directory).
    pub ledger_scope: String,
    /// Base seed for session and epoch noise streams.
    pub seed: u64,
}

impl ServiceConfig {
    /// A service configuration with default supervision, an unmetered
    /// in-memory ledger, and `seed` 0 — the shape batch callers need.
    pub fn new(aegis: AegisConfig) -> ServiceConfig {
        ServiceConfig {
            aegis,
            supervisor: SupervisorConfig::default(),
            default_budget: f64::INFINITY,
            ledger_dir: None,
            ledger_scope: "default".to_string(),
            seed: 0,
        }
    }

    /// Sets the per-tenant ε budget.
    pub fn default_budget(mut self, eps: f64) -> ServiceConfig {
        self.default_budget = eps;
        self
    }

    /// Persists the ε ledger under `dir`.
    pub fn ledger_dir(mut self, dir: impl Into<PathBuf>) -> ServiceConfig {
        self.ledger_dir = Some(dir.into());
        self
    }

    /// Sets the ledger namespace.
    pub fn ledger_scope(mut self, scope: impl Into<String>) -> ServiceConfig {
        self.ledger_scope = scope.into();
        self
    }

    /// Sets the service seed.
    pub fn seed(mut self, seed: u64) -> ServiceConfig {
        self.seed = seed;
        self
    }

    /// Replaces the supervision policy.
    pub fn supervisor(mut self, supervisor: SupervisorConfig) -> ServiceConfig {
        self.supervisor = supervisor;
        self
    }

    pub(crate) fn validate(&self) -> Result<(), AegisError> {
        self.supervisor.validate()?;
        if self.default_budget <= 0.0 || self.default_budget.is_nan() {
            return Err(AegisError::config(
                "default_budget",
                format!("must be positive (got {})", self.default_budget),
            ));
        }
        Ok(())
    }
}

/// One supervised protection session.
struct Session {
    id: SessionId,
    tenant: String,
    vm: VmId,
    vcpu: usize,
    core: usize,
    /// The authoritative deployment target; restarts re-mint from this,
    /// so a reload staged here survives a mid-drain watchdog restart.
    deployment: DefenseDeployment,
    seed: u64,
    /// Obfuscator instances minted (attach = epoch 0; each restart
    /// increments).
    epochs: u64,
    restarts: u32,
    reloads: u64,
    unhealthy_checks: u32,
    epsilon_charged: f64,
    health_stream: Option<FaultStream>,
    state: SessionState,
}

/// A session's protection lineage, carried across hosts when its home
/// host crashes: the deployment target, the session's seed (so the next
/// epoch's noise stream continues the same `derive_seed` chain), and the
/// lifetime counters. The ε *spend* itself is not carried here — it
/// lives in the tenant's ledger account, which the fleet re-reads from
/// the artifact store on the destination host.
#[derive(Debug, Clone)]
pub(crate) struct EvacRecord {
    pub(crate) tenant: String,
    pub(crate) deployment: DefenseDeployment,
    pub(crate) seed: u64,
    pub(crate) epochs: u64,
    pub(crate) restarts: u32,
    pub(crate) reloads: u64,
    pub(crate) epsilon_charged: f64,
}

/// Health of one session, as seen by the service's own watchdog.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionHealth {
    /// Session id.
    pub id: SessionId,
    /// Owning tenant.
    pub tenant: String,
    /// Protected VM.
    pub vm: VmId,
    /// Protected vCPU.
    pub vcpu: usize,
    /// Lifecycle status.
    pub status: Status,
    /// Watchdog restarts so far.
    pub restarts: u32,
    /// Hot reloads applied so far.
    pub reloads: u64,
    /// ε charged against the tenant for this session's epochs.
    pub epsilon_charged: f64,
}

/// Snapshot of every session, from [`ServiceHandle::health`].
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Per-session health, in session-id order.
    pub sessions: Vec<SessionHealth>,
}

/// Final accounting for a detached session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Session id.
    pub id: SessionId,
    /// Owning tenant.
    pub tenant: String,
    /// Status at detach time.
    pub status: Status,
    /// Watchdog restarts over the session's life.
    pub restarts: u32,
    /// Hot reloads over the session's life.
    pub reloads: u64,
    /// Total ε this session charged.
    pub epsilon_charged: f64,
}

/// Final accounting for the whole plane, from
/// [`ServiceHandle::shutdown`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Every session ever attached, in session-id order.
    pub sessions: Vec<SessionReport>,
}

/// The service-plane entry point.
#[derive(Debug, Clone, Default)]
pub struct AegisService;

impl AegisService {
    /// Opens the service plane on `host` and returns the handle that
    /// drives it. The handle borrows the host exclusively: while the
    /// plane is up, every host interaction goes through it (or through
    /// [`ServiceHandle::host_mut`]).
    ///
    /// # Errors
    ///
    /// Returns [`AegisError::Config`] for an invalid configuration.
    pub fn start(host: &mut Host, config: ServiceConfig) -> Result<ServiceHandle<'_>, AegisError> {
        config.validate()?;
        let plan = config.aegis.faults.unwrap_or_else(faults::plan);
        let ledger = EpsilonLedger::open(
            config.default_budget,
            config
                .ledger_dir
                .as_ref()
                .map(|dir| (ArtifactCache::with_faults(dir, plan), config.ledger_scope.as_str())),
            plan,
        );
        obs::counter_add("service.starts", 1.0);
        let plane = ServicePlane::open(host, config, LedgerSlot::Owned(Box::new(ledger)));
        Ok(ServiceHandle { host, plane })
    }
}

/// A running service plane: the supervised sessions, the ε ledger, and
/// exclusive access to the host they execute on.
pub struct ServiceHandle<'h> {
    host: &'h mut Host,
    plane: ServicePlane,
}

impl<'h> ServiceHandle<'h> {
    /// Shared access to the underlying host (for measurements).
    pub fn host(&self) -> &Host {
        self.host
    }

    /// Mutable access to the underlying host. Prefer
    /// [`ServiceHandle::run`] for advancing time so supervision keeps
    /// its cadence; this is the hatch for attaching apps and recording
    /// traces mid-session.
    pub fn host_mut(&mut self) -> &mut Host {
        self.host
    }

    /// Attaches a supervised protection session: deploys `plan`'s stack
    /// on `(vm, vcpu)` under the configured mechanism and charges the
    /// epoch's ε to `tenant`.
    ///
    /// On a spent budget the session is still registered — terminal, in
    /// [`Status::Exhausted`] — and the guest's counters are latched to
    /// read zero before the error returns: a tenant out of ε gets *no
    /// service*, never silent unprotected execution.
    ///
    /// # Errors
    ///
    /// [`AegisError::Host`] for unknown ids, [`AegisError::Service`] if
    /// the vCPU already has a live session (or the ledger is poisoned),
    /// [`AegisError::BudgetExhausted`] when the tenant's ε is spent.
    pub fn attach(
        &mut self,
        vm: VmId,
        vcpu: usize,
        plan: &DefensePlan,
        tenant: &str,
    ) -> Result<SessionId, AegisError> {
        self.plane.attach(self.host, vm, vcpu, plan, tenant)
    }

    /// Advances sim time by `duration_ns`, ticking the host and running
    /// the supervision loop: health checks on a fixed sim-time grid,
    /// watchdog restarts with backoff, and redeploys when backoff
    /// expires. Everything here is a pure function of
    /// `(config, seeds, fault plan)` — the same call sequence replays
    /// bit-identically at any worker count.
    pub fn run(&mut self, duration_ns: u64) {
        self.plane.run(self.host, duration_ns);
    }

    /// Hot-swaps `plan` onto a running session. The live obfuscator
    /// drains its in-flight interval under the old stack, then attaches
    /// the new one atomically at the interval boundary — the mechanism's
    /// noise series, interval counter, and sample feed continue gapless,
    /// so no sample is dropped. The epoch charges the mechanism's ε.
    ///
    /// Torn swaps (the `service.reload` fault site) are detected by the
    /// stack generation not advancing and restaged up to the configured
    /// attempt budget; if the reload still does not land, the *old plan
    /// remains fully attached* and an error reports the abandonment —
    /// atomicity means never half-swapped.
    ///
    /// Draining advances sim time (roughly one obfuscator interval per
    /// attempt), with supervision running normally throughout.
    ///
    /// # Errors
    ///
    /// [`AegisError::Service`] for an unknown/non-running session or an
    /// abandoned reload, [`AegisError::BudgetExhausted`] when the epoch
    /// does not fit the tenant's remaining ε (the session transitions to
    /// [`Status::Exhausted`], fail-closed).
    pub fn reload(&mut self, id: SessionId, plan: &DefensePlan) -> Result<Deployment, AegisError> {
        self.plane.reload(self.host, id, plan)
    }

    /// Health of every session, in session-id order.
    pub fn health(&self) -> HealthReport {
        self.plane.health(self.host)
    }

    /// One session's lifecycle status.
    ///
    /// # Errors
    ///
    /// Returns [`AegisError::Service`] for an unknown session.
    pub fn status(&self, id: SessionId) -> Result<Status, AegisError> {
        self.plane.status(self.host, id)
    }

    /// ε still unspent in `tenant`'s ledger account, or `None` for a
    /// tenant the ledger has never charged.
    pub fn epsilon_remaining(&self, tenant: &str) -> Option<f64> {
        self.plane.epsilon_remaining(tenant)
    }

    /// Cleanly detaches a session: the injector is removed and — unless
    /// the session ended fail-closed ([`Status::Exhausted`] /
    /// [`Status::Failed`], whose latches are sticky by design) — the
    /// core's counters return to normal operation.
    ///
    /// # Errors
    ///
    /// Returns [`AegisError::Service`] for unknown or already-detached
    /// sessions.
    pub fn detach(&mut self, id: SessionId) -> Result<SessionReport, AegisError> {
        self.plane.detach(self.host, id)
    }

    /// Shuts the plane down: every live session is detached (terminal
    /// fail-closed sessions keep their latch) and the final accounting
    /// is returned. The exclusive host borrow ends with the handle.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; the `Result` reserves room for
    /// persistence failures to surface.
    pub fn shutdown(mut self) -> Result<ServiceReport, AegisError> {
        Ok(self.plane.shutdown(self.host))
    }

    /// Runs the offline profiling pipeline on the service's host:
    /// warm-up profiling, mutual-information ranking, event fuzzing on
    /// an isolated core, covering-set extraction, and stack calibration.
    /// This *is* the profiler daemon of the plane — `AegisPipeline::
    /// offline` delegates here, so batch and service profiling cannot
    /// drift.
    ///
    /// # Errors
    ///
    /// Returns [`AegisError::Host`] for invalid vm/vcpu ids, and
    /// [`AegisError::Uncovered`] when fuzzing confirms no gadget for any
    /// of the top-ranked events.
    pub fn profile(
        &mut self,
        vm: VmId,
        vcpu: usize,
        app: &dyn SecretApp,
    ) -> Result<DefensePlan, AegisError> {
        self.plane.profile(self.host, vm, vcpu, app)
    }
}

/// The service plane's state machine, decoupled from the host borrow:
/// every method takes the host it supervises as an explicit parameter.
/// [`ServiceHandle`] wraps one plane around an exclusive borrow for the
/// single-host API; `aegis::fleet` owns `(Host, ServicePlane)` pairs
/// outright and multiplexes a fleet supervisor over them.
pub(crate) struct ServicePlane {
    cfg: ServiceConfig,
    faults: FaultPlan,
    ledger: LedgerSlot,
    sessions: Vec<Session>,
    next_check_ns: u64,
}

impl ServicePlane {
    /// Opens a plane over `host` with the given ledger slot. The
    /// configuration must already be validated.
    pub(crate) fn open(host: &Host, cfg: ServiceConfig, ledger: LedgerSlot) -> ServicePlane {
        let faults = cfg.aegis.faults.unwrap_or_else(faults::plan);
        let next_check_ns = host.clock_ns() + cfg.supervisor.health_check_interval_ns;
        ServicePlane {
            cfg,
            faults,
            ledger,
            sessions: Vec::new(),
            next_check_ns,
        }
    }

    pub(crate) fn attach(
        &mut self,
        host: &mut Host,
        vm: VmId,
        vcpu: usize,
        plan: &DefensePlan,
        tenant: &str,
    ) -> Result<SessionId, AegisError> {
        let core = host.core_of(vm, vcpu)?;
        if let Some(existing) = self
            .sessions
            .iter()
            .find(|s| s.vm == vm && s.vcpu == vcpu && s.state != SessionState::Detached)
        {
            return Err(AegisError::service(
                format!("attach {vm} vcpu {vcpu}"),
                format!(
                    "session {} already covers this vCPU (status {})",
                    existing.id,
                    status_of(existing, host)
                ),
            ));
        }
        let id = SessionId(self.sessions.len() as u32);
        let seed = derive_seed(self.cfg.seed, STREAM_SESSION, id.0 as u64);
        let mut session = Session {
            id,
            tenant: tenant.to_string(),
            vm,
            vcpu,
            core,
            deployment: DefenseDeployment::new(plan, self.cfg.aegis.mechanism),
            seed,
            epochs: 0,
            restarts: 0,
            reloads: 0,
            unhealthy_checks: 0,
            epsilon_charged: 0.0,
            health_stream: self
                .faults
                .is_active()
                .then(|| FaultStream::new(&self.faults, site::SERVICE_HEALTH, id.0 as u64)),
            state: SessionState::Running,
        };
        let eps = self.cfg.aegis.mechanism.epsilon_cost();
        match self.ledger.charge(tenant, eps) {
            Ok(_) => {}
            Err(err) => {
                // Refused service fails closed: the guest reads zeros,
                // and the terminal session records why.
                session.state = match err {
                    AegisError::BudgetExhausted { .. } => SessionState::Exhausted,
                    _ => SessionState::Failed,
                };
                host.set_core_fail_closed(core, true);
                obs::counter_add("service.exhausted", 1.0);
                obs::event("service.attach_refused", &[("tenant", tenant)]);
                self.sessions.push(session);
                return Err(err);
            }
        }
        session.epsilon_charged += eps;
        let obf = mint_obfuscator(&session, self.faults);
        host.attach_injector(vm, vcpu, Box::new(obf))?;
        obs::counter_add("service.attaches", 1.0);
        self.sessions.push(session);
        self.update_gauges();
        Ok(id)
    }

    pub(crate) fn run(&mut self, host: &mut Host, duration_ns: u64) {
        let mut span = obs::span("service.run");
        span.set_sim_ns(duration_ns);
        let end = host.clock_ns().saturating_add(duration_ns);
        while host.clock_ns() < end {
            host.tick(|_, _, _| {});
            let now = host.clock_ns();
            if now >= self.next_check_ns {
                while self.next_check_ns <= now {
                    self.next_check_ns += self.cfg.supervisor.health_check_interval_ns;
                }
                self.health_check_all(host);
            }
            self.fire_due_redeploys(host, now);
        }
    }

    pub(crate) fn reload(
        &mut self,
        host: &mut Host,
        id: SessionId,
        plan: &DefensePlan,
    ) -> Result<Deployment, AegisError> {
        let i = self.session_index(id)?;
        if self.sessions[i].state != SessionState::Running {
            return Err(AegisError::service(
                format!("reload session {id}"),
                format!(
                    "session is {} — only running sessions reload",
                    status_of(&self.sessions[i], host)
                ),
            ));
        }
        let eps = self.cfg.aegis.mechanism.epsilon_cost();
        let tenant = self.sessions[i].tenant.clone();
        if let Err(err) = self.ledger.charge(&tenant, eps) {
            let state = match err {
                AegisError::BudgetExhausted { .. } => SessionState::Exhausted,
                _ => SessionState::Failed,
            };
            self.make_terminal(host, i, state);
            return Err(err);
        }
        self.sessions[i].epsilon_charged += eps;

        let old_deployment = self.sessions[i].deployment.clone();
        self.sessions[i].deployment = DefenseDeployment::new(plan, self.cfg.aegis.mechanism);
        let (vm, vcpu) = (self.sessions[i].vm, self.sessions[i].vcpu);
        let drain_ns = self.sessions[i].deployment.obfuscator.interval_ns + TICK_NS;
        let attempts = self.cfg.supervisor.reload_attempts;
        let mut landed = false;
        for _ in 0..attempts {
            if self.sessions[i].state != SessionState::Running {
                // The watchdog took the session mid-reload; its redeploy
                // mints from the updated deployment, so the new plan is
                // the one that (eventually) lands.
                landed = true;
                break;
            }
            let epoch_at_stage = self.sessions[i].epochs;
            let stack = self.sessions[i].deployment.stack.clone();
            let Some(obf) = host
                .injector_any_mut(vm, vcpu)?
                .and_then(|a| a.downcast_mut::<Obfuscator>())
            else {
                self.sessions[i].deployment = old_deployment;
                return Err(AegisError::service(
                    format!("reload session {id}"),
                    "attached injector is not a supervisable obfuscator",
                ));
            };
            let gen_before = obf.stack_generation();
            obf.begin_reload(stack);
            self.run(host, drain_ns);
            if self.sessions[i].state != SessionState::Running
                || self.sessions[i].epochs != epoch_at_stage
            {
                landed = true;
                break;
            }
            let swapped = host
                .injector_any_mut(vm, vcpu)?
                .and_then(|a| a.downcast_mut::<Obfuscator>())
                .is_some_and(|o| o.stack_generation() > gen_before);
            if swapped {
                landed = true;
                break;
            }
            obs::counter_add("service.reload_torn_retries", 1.0);
        }
        if !landed {
            self.sessions[i].deployment = old_deployment;
            return Err(AegisError::service(
                format!("reload session {id}"),
                format!("{attempts} consecutive torn swaps; old plan remains attached"),
            ));
        }
        let s = &mut self.sessions[i];
        s.reloads += 1;
        obs::counter_add("service.reloads", 1.0);
        Ok(Deployment {
            plan_id: s.deployment.plan_id(),
            vm,
            vcpus: vec![vcpu],
            mechanism: s.deployment.mechanism.label(),
            epsilon_charged: eps,
            seed: s.seed,
        })
    }

    pub(crate) fn health(&self, host: &Host) -> HealthReport {
        HealthReport {
            sessions: self
                .sessions
                .iter()
                .map(|s| SessionHealth {
                    id: s.id,
                    tenant: s.tenant.clone(),
                    vm: s.vm,
                    vcpu: s.vcpu,
                    status: status_of(s, host),
                    restarts: s.restarts,
                    reloads: s.reloads,
                    epsilon_charged: s.epsilon_charged,
                })
                .collect(),
        }
    }

    pub(crate) fn status(&self, host: &Host, id: SessionId) -> Result<Status, AegisError> {
        let i = self.session_index(id)?;
        Ok(status_of(&self.sessions[i], host))
    }

    pub(crate) fn epsilon_remaining(&self, tenant: &str) -> Option<f64> {
        self.ledger.remaining(tenant)
    }

    pub(crate) fn detach(
        &mut self,
        host: &mut Host,
        id: SessionId,
    ) -> Result<SessionReport, AegisError> {
        let i = self.session_index(id)?;
        if self.sessions[i].state == SessionState::Detached {
            return Err(AegisError::service(
                format!("detach session {id}"),
                "already detached",
            ));
        }
        let report = self.detach_index(host, i);
        self.update_gauges();
        Ok(report)
    }

    pub(crate) fn shutdown(&mut self, host: &mut Host) -> ServiceReport {
        let mut sessions = Vec::with_capacity(self.sessions.len());
        for i in 0..self.sessions.len() {
            sessions.push(if self.sessions[i].state == SessionState::Detached {
                self.session_report(host, i)
            } else {
                self.detach_index(host, i)
            });
        }
        // Clean shutdown releases the ledger's gc pin (owned slots only;
        // shared fleet ledgers close at fleet shutdown).
        self.ledger.close();
        obs::counter_add("service.shutdowns", 1.0);
        ServiceReport { sessions }
    }

    pub(crate) fn profile(
        &mut self,
        host: &mut Host,
        vm: VmId,
        vcpu: usize,
        app: &dyn SecretApp,
    ) -> Result<DefensePlan, AegisError> {
        let cfg = &self.cfg.aegis;

        // Module 1a: warm-up profiling.
        let warmup = {
            let _s = obs::span("profile.warmup");
            warmup_profile(host, vm, vcpu, app, &cfg.warmup)?
        };

        // Module 1b: vulnerability ranking by mutual information.
        let rankings = {
            let _s = obs::span("profile.rank");
            rank_events(host, vm, vcpu, app, &warmup.vulnerable, &cfg.rank)?
        };

        // Module 2: fuzz the most vulnerable events on an isolated core
        // of the same microarchitecture.
        let arch = host.arch();
        let isa = IsaCatalog::shared(arch.vendor(), cfg.isa_seed);
        let mut fuzz_core = Core::new(arch, cfg.fuzzer.seed);
        fuzz_core.set_interference(InterferenceConfig::isolated());
        let targets: Vec<_> = rankings
            .iter()
            .take(cfg.fuzz_top_events)
            .map(|r| r.event)
            .collect();
        let fuzzer = EventFuzzer::new(cfg.fuzzer);
        let mut outcome = fuzzer.run(&isa, &mut fuzz_core, &targets);

        // Module 2 filtering + covering set.
        let gadget_stats = GadgetStats::from_events(&outcome.per_event);
        cluster_gadgets(&mut outcome);
        let covering = {
            let _s = obs::span("plan.cover");
            covering_set(&outcome.per_event)
        };
        if covering.is_empty() {
            return Err(AegisError::Uncovered {
                events: rankings
                    .iter()
                    .take(cfg.fuzz_top_events)
                    .map(|r| r.name.clone())
                    .collect(),
            });
        }

        // Calibrate the injection unit.
        let stack = {
            let _s = obs::span("plan.calibrate");
            fuzz_core.reset_cache();
            aegis_obfuscator::GadgetStack::from_covering(&isa, &mut fuzz_core, &covering)
        };

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

    // ---- fleet hooks ---------------------------------------------------

    /// Drains every live session off a crashed host: injectors detach,
    /// every session core keeps (or gains) its fail-closed latch, and
    /// the sessions' protection lineage is returned for re-placement.
    /// Terminal sessions ([`Status::Exhausted`] / [`Status::Failed`])
    /// are *not* evacuated — their sticky latches are the whole point —
    /// and already-detached sessions have nothing to move.
    pub(crate) fn evacuate_all(&mut self, host: &mut Host) -> Vec<EvacRecord> {
        let mut out = Vec::new();
        for i in 0..self.sessions.len() {
            let live = matches!(
                self.sessions[i].state,
                SessionState::Running | SessionState::Backoff { .. }
            );
            if !live {
                continue;
            }
            let s = &self.sessions[i];
            out.push(EvacRecord {
                tenant: s.tenant.clone(),
                deployment: s.deployment.clone(),
                seed: s.seed,
                epochs: s.epochs,
                restarts: s.restarts,
                reloads: s.reloads,
                epsilon_charged: s.epsilon_charged,
            });
            let (vm, vcpu, core) = (s.vm, s.vcpu, s.core);
            let _ = host.detach_injector(vm, vcpu);
            // Mid-evacuation the guest must never read a clean counter:
            // the latch goes on *before* the session leaves this plane
            // and only the destination's demonstrated health releases
            // the one at the far end.
            host.set_core_fail_closed(core, true);
            self.sessions[i].state = SessionState::Detached;
            obs::counter_add("service.evacuations", 1.0);
        }
        self.update_gauges();
        out
    }

    /// Adopts a session evacuated from another host: registers it on
    /// this plane against `(vm, vcpu)`, charges a fresh epoch to the
    /// tenant (the evacuation redeploy), and re-mints the obfuscator
    /// from the carried seed lineage — `derive_seed(seed, STREAM_EPOCH,
    /// epochs + 1)`, exactly the stream a watchdog restart would have
    /// used next. The destination core is latched fail-closed *before*
    /// the injector attaches; the host watchdog releases it only once
    /// the new daemon demonstrates health.
    ///
    /// # Errors
    ///
    /// [`AegisError::Host`] for unknown ids, [`AegisError::Service`] /
    /// [`AegisError::BudgetExhausted`] when the tenant's ledger refuses
    /// the epoch (the adopted session is registered terminal,
    /// fail-closed, before the error returns).
    pub(crate) fn adopt(
        &mut self,
        host: &mut Host,
        vm: VmId,
        vcpu: usize,
        rec: EvacRecord,
    ) -> Result<SessionId, AegisError> {
        let core = host.core_of(vm, vcpu)?;
        // Trust is re-earned, not assumed: no clean reads between
        // placement and the adopted daemon's first healthy run.
        host.set_core_fail_closed(core, true);
        let id = SessionId(self.sessions.len() as u32);
        let mut session = Session {
            id,
            tenant: rec.tenant.clone(),
            vm,
            vcpu,
            core,
            deployment: rec.deployment,
            seed: rec.seed,
            epochs: rec.epochs + 1,
            restarts: rec.restarts,
            reloads: rec.reloads,
            unhealthy_checks: 0,
            epsilon_charged: rec.epsilon_charged,
            health_stream: self
                .faults
                .is_active()
                .then(|| FaultStream::new(&self.faults, site::SERVICE_HEALTH, id.0 as u64)),
            state: SessionState::Running,
        };
        let eps = self.cfg.aegis.mechanism.epsilon_cost();
        match self.ledger.charge(&rec.tenant, eps) {
            Ok(_) => {}
            Err(err) => {
                session.state = match err {
                    AegisError::BudgetExhausted { .. } => SessionState::Exhausted,
                    _ => SessionState::Failed,
                };
                obs::counter_add("service.exhausted", 1.0);
                obs::event("service.adopt_refused", &[("tenant", rec.tenant.as_str())]);
                self.sessions.push(session);
                return Err(err);
            }
        }
        session.epsilon_charged += eps;
        let obf = mint_obfuscator(&session, self.faults);
        host.attach_injector(vm, vcpu, Box::new(obf))?;
        obs::counter_add("service.adoptions", 1.0);
        self.sessions.push(session);
        self.update_gauges();
        Ok(id)
    }

    /// Bounces every running session through the watchdog path — the
    /// fleet's host-degraded event: daemons on a degraded host cannot be
    /// trusted, so each one is detached, its core latched, and a
    /// backoff-scheduled redeploy (or terminal failure, once the restart
    /// budget is spent) takes it from there.
    pub(crate) fn force_restart_all(&mut self, host: &mut Host) {
        for i in 0..self.sessions.len() {
            if self.sessions[i].state == SessionState::Running {
                self.begin_restart(host, i);
            }
        }
    }

    // ---- internals -----------------------------------------------------

    fn session_index(&self, id: SessionId) -> Result<usize, AegisError> {
        self.sessions
            .iter()
            .position(|s| s.id == id)
            .ok_or_else(|| AegisError::service(format!("session {id}"), "unknown session"))
    }

    fn session_report(&self, host: &Host, i: usize) -> SessionReport {
        let s = &self.sessions[i];
        SessionReport {
            id: s.id,
            tenant: s.tenant.clone(),
            status: status_of(s, host),
            restarts: s.restarts,
            reloads: s.reloads,
            epsilon_charged: s.epsilon_charged,
        }
    }

    fn detach_index(&mut self, host: &mut Host, i: usize) -> SessionReport {
        let (vm, vcpu, core, prior) = {
            let s = &self.sessions[i];
            (s.vm, s.vcpu, s.core, s.state)
        };
        let _ = host.detach_injector(vm, vcpu);
        match prior {
            // Fail-closed terminal states keep their latch: a spent
            // budget or restart budget never hands back clean counters.
            SessionState::Exhausted | SessionState::Failed => {}
            _ => host.set_core_fail_closed(core, false),
        }
        self.sessions[i].state = SessionState::Detached;
        obs::counter_add("service.detaches", 1.0);
        let mut report = self.session_report(host, i);
        // The report keeps the terminal *reason* where there is one;
        // plain `Detached` means the session ended in good standing.
        report.status = match prior {
            SessionState::Exhausted => Status::Exhausted,
            SessionState::Failed => Status::Failed,
            _ => Status::Detached,
        };
        report
    }

    fn health_check_all(&mut self, host: &mut Host) {
        for i in 0..self.sessions.len() {
            self.health_check(host, i);
        }
    }

    fn health_check(&mut self, host: &mut Host, i: usize) {
        if self.sessions[i].state != SessionState::Running {
            return;
        }
        obs::counter_add("service.health_checks", 1.0);
        let (vm, vcpu) = (self.sessions[i].vm, self.sessions[i].vcpu);
        let status = host.injector_status(vm, vcpu).ok().flatten();
        let mut healthy = status == Some(ProtectionStatus::Healthy);
        if healthy {
            // Injected flap: a healthy check spuriously reads unhealthy.
            let rate = self.faults.health_flap;
            let flapped = self.sessions[i]
                .health_stream
                .as_mut()
                .is_some_and(|s| s.chance(rate));
            if flapped {
                healthy = false;
                faults::report(
                    "service",
                    "health_flap",
                    &[("session", self.sessions[i].id.0 as u64)],
                );
            }
        }
        if healthy {
            self.sessions[i].unhealthy_checks = 0;
            return;
        }
        self.sessions[i].unhealthy_checks += 1;
        if self.sessions[i].unhealthy_checks < self.cfg.supervisor.unhealthy_checks_restart {
            return;
        }
        self.begin_restart(host, i);
    }

    /// The watchdog fires: detach the daemon, latch the core (no
    /// injector means no protection — the guest must read zeros), and
    /// either schedule a redeploy after backoff or, with the restart
    /// budget spent, fail the session permanently.
    fn begin_restart(&mut self, host: &mut Host, i: usize) {
        let (vm, vcpu, core) = {
            let s = &self.sessions[i];
            (s.vm, s.vcpu, s.core)
        };
        let _ = host.detach_injector(vm, vcpu);
        host.set_core_fail_closed(core, true);
        let s = &mut self.sessions[i];
        s.unhealthy_checks = 0;
        s.restarts += 1;
        if s.restarts > self.cfg.supervisor.max_restarts {
            obs::counter_add("service.failed", 1.0);
            obs::event("service.session_failed", &[("session", &s.id.to_string())]);
            s.state = SessionState::Failed;
            self.update_gauges();
            return;
        }
        let backoff = self.cfg.supervisor.backoff_ns(s.restarts);
        s.state = SessionState::Backoff {
            until_ns: host.clock_ns() + backoff,
        };
        obs::counter_add("service.watchdog_restarts", 1.0);
        obs::event("service.watchdog_restart", &[("session", &s.id.to_string())]);
        self.update_gauges();
    }

    fn fire_due_redeploys(&mut self, host: &mut Host, now_ns: u64) {
        for i in 0..self.sessions.len() {
            if let SessionState::Backoff { until_ns } = self.sessions[i].state {
                if now_ns >= until_ns {
                    self.redeploy(host, i);
                }
            }
        }
    }

    /// Backoff expired: charge a fresh epoch and re-attach. The forced
    /// latch stays on until the new daemon demonstrates health (the host
    /// watchdog releases it after a healthy run) — restart is trust
    /// re-earned, not assumed.
    fn redeploy(&mut self, host: &mut Host, i: usize) {
        let eps = self.cfg.aegis.mechanism.epsilon_cost();
        let tenant = self.sessions[i].tenant.clone();
        match self.ledger.charge(&tenant, eps) {
            Ok(_) => {}
            Err(err) => {
                let state = match err {
                    AegisError::BudgetExhausted { .. } => SessionState::Exhausted,
                    _ => SessionState::Failed,
                };
                obs::counter_add("service.exhausted", 1.0);
                obs::event(
                    "service.redeploy_refused",
                    &[("tenant", tenant.as_str()), ("error", &err.to_string())],
                );
                self.make_terminal(host, i, state);
                return;
            }
        }
        let s = &mut self.sessions[i];
        s.epsilon_charged += eps;
        s.epochs += 1;
        let obf = mint_obfuscator(s, self.faults);
        let (vm, vcpu) = (s.vm, s.vcpu);
        s.state = SessionState::Running;
        obs::counter_add("service.restarts_completed", 1.0);
        host.attach_injector(vm, vcpu, Box::new(obf))
            .expect("session ids were validated at attach");
        self.update_gauges();
    }

    /// Moves a session to a terminal fail-closed state: no injector, a
    /// sticky latch, zeros forever.
    fn make_terminal(&mut self, host: &mut Host, i: usize, state: SessionState) {
        let (vm, vcpu, core) = {
            let s = &self.sessions[i];
            (s.vm, s.vcpu, s.core)
        };
        let _ = host.detach_injector(vm, vcpu);
        host.set_core_fail_closed(core, true);
        self.sessions[i].state = state;
        self.update_gauges();
    }

    fn update_gauges(&self) {
        let active = self
            .sessions
            .iter()
            .filter(|s| {
                matches!(
                    s.state,
                    SessionState::Running | SessionState::Backoff { .. }
                )
            })
            .count();
        obs::gauge_set("service.sessions.active", active as f64);
    }
}

/// Builds the epoch's obfuscator: stack and mechanism from the session's
/// authoritative deployment, noise stream keyed by the epoch counter so
/// every restart gets a fresh (but deterministic) stream.
fn mint_obfuscator(s: &Session, plan: FaultPlan) -> Obfuscator {
    let seed = derive_seed(s.seed, STREAM_EPOCH, s.epochs);
    Obfuscator::with_faults(
        s.deployment.stack.clone(),
        s.deployment.mechanism.build(seed),
        s.deployment.obfuscator,
        seed,
        plan,
    )
}

/// Maps internal state (plus the injector's live self-report) to the
/// externally visible status.
fn status_of(s: &Session, host: &Host) -> Status {
    match s.state {
        SessionState::Running => {
            let degraded = s.unhealthy_checks > 0
                || host.injector_status(s.vm, s.vcpu).ok().flatten()
                    == Some(ProtectionStatus::Degraded);
            if degraded {
                Status::Degraded
            } else {
                Status::Healthy
            }
        }
        SessionState::Backoff { .. } => Status::Restarting,
        SessionState::Failed => Status::Failed,
        SessionState::Exhausted => Status::Exhausted,
        SessionState::Detached => Status::Detached,
    }
}
