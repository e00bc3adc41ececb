//! The multi-tenant fleet plane: a deterministic sharded fleet of
//! simulated hosts, each running the service plane for its tenants,
//! under one fleet supervisor with explicit failure domains.
//!
//! The paper's threat model is a cloud host running many co-located
//! SEV guests; this module is the "cloud" above the single host:
//!
//! - a [`Scheduler`] maps tenant VMs onto sockets and SMT core pairs
//!   under a pluggable [`PlacementPolicy`] — the production tenancy
//!   ground rules (SMT off, core-pair exclusivity, dense packing,
//!   spreading) as first-class, testable knobs;
//! - every host is its own failure domain: a `(Host, ServicePlane)`
//!   shard whose health aggregates from the service `status()` plane;
//! - the chaos-storm driver schedules seeded host-crash and
//!   host-degraded bursts across shards (the `fleet.host_crash` /
//!   `fleet.host_degrade` fault sites), and crashed hosts trigger
//!   fail-closed *evacuation*: drain (injectors detach, every source
//!   core latches), re-place on surviving capacity, and an
//!   epoch-reseeded redeploy on the destination via the same
//!   `derive_seed` lineage a watchdog restart would have used. The
//!   tenant's ε account is carried between hosts through the artifact
//!   store — the destination trusts the persisted record, and a tenant
//!   whose record reads torn is *quarantined*, never re-placed;
//! - a cross-tenant honest-but-curious attacker
//!   ([`cross_tenant_accuracy`]) measures what sibling co-residency
//!   leaks under each policy.
//!
//! Everything is a pure function of `(config, seeds, fault plan)`:
//! fleet runs replay bit-identically at any `aegis-par` worker count.

mod attack;
mod placement;

pub use attack::{cross_tenant_accuracy, policy_attack_table, CrossTenantConfig, PolicyAttackCell};
pub use placement::{FleetTopology, Placement, PlacementPolicy, Scheduler};

use crate::error::AegisError;
use crate::plan::DefensePlan;
use crate::service::{LedgerSlot, ServiceConfig, ServicePlane, Status, TenantLedgers};
use aegis_faults::{self as faults, site, FaultPlan, FaultStream};
use aegis_microarch::MicroArch;
use aegis_obs as obs;
use aegis_par::{derive_seed, ArtifactCache, Executor};
use aegis_sev::{Host, PlanSource, SevMode};
use aegis_workloads::{SecretApp, WorkloadPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// Seed stream tags separating the fleet's independent RNG consumers
/// (see [`derive_seed`]). Disjoint from the service streams (0x20–0x21)
/// and the sweep streams (0x10–0x14).
const STREAM_FLEET_HOST: u64 = 0x30;
const STREAM_FLEET_PLANE: u64 = 0x31;
const STREAM_FLEET_APP: u64 = 0x32;

/// Tenant time (tenants homed on live hosts × step length) from which
/// [`FleetSupervisor::run`] steps the hosts on the worker pool. On a
/// 2-vCPU VM one worker spends 1.9–2.5 µs of wall time per tenant-ms in
/// a 32-tenant fleet on 8 hosts (5.9–7.6 µs in an 8-tenant one), and a
/// 2-worker pool call costs a fixed 35 µs: one thread spawn, with the
/// calling thread working as the other worker. The value was tuned when
/// that call spawned both workers and cost 60–70 µs, and has not been
/// retuned since. Shorter steps, such as the 1 ms steps that wait out an
/// evacuation, stay on the calling thread.
const PARALLEL_STEP_TENANT_NS: u64 = 64_000_000;

/// Fleet-wide configuration: the per-host service template plus the
/// fleet's shape, placement policy, and tenant population.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Template for every host's service plane. Its `seed` is replaced
    /// per host by a derived stream; its `ledger_dir`/`ledger_scope`
    /// name the fleet-wide tenant ε store.
    pub service: ServiceConfig,
    /// Hosts, sockets, and SMT pairs.
    pub topology: FleetTopology,
    /// How tenants map onto pairs.
    pub policy: PlacementPolicy,
    /// Tenant VMs to place (named `t000`, `t001`, …).
    pub tenants: usize,
    /// Microarchitecture of every simulated host.
    pub arch: MicroArch,
    /// Master fleet seed; host, plane, and workload streams derive
    /// from it.
    pub seed: u64,
}

impl FleetConfig {
    /// A fleet configuration with the default microarchitecture and
    /// seed 0.
    pub fn new(
        service: ServiceConfig,
        topology: FleetTopology,
        policy: PlacementPolicy,
        tenants: usize,
    ) -> FleetConfig {
        FleetConfig {
            service,
            topology,
            policy,
            tenants,
            arch: MicroArch::AmdEpyc7252,
            seed: 0,
        }
    }

    /// Sets the master fleet seed.
    pub fn seed(mut self, seed: u64) -> FleetConfig {
        self.seed = seed;
        self
    }

    fn validate(&self) -> Result<(), AegisError> {
        self.service.validate()?;
        self.topology.validate()?;
        if self.tenants == 0 {
            return Err(AegisError::config("tenants", "must be nonzero"));
        }
        let capacity = self.policy.capacity_per_host(&self.topology) * self.topology.hosts;
        if self.tenants > capacity {
            return Err(AegisError::config(
                "tenants",
                format!(
                    "{} tenants exceed the {} slots {} offers on this topology",
                    self.tenants,
                    capacity,
                    self.policy.label()
                ),
            ));
        }
        Ok(())
    }
}

/// Failure-domain state of one host shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HostState {
    /// Up, every session healthy.
    Healthy,
    /// Up, but at least one session is degraded or mid-restart.
    Degraded,
    /// Crashed: frozen clock, every core latched, tenants evacuated.
    Crashed,
}

impl std::fmt::Display for HostState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HostState::Healthy => "healthy",
            HostState::Degraded => "degraded",
            HostState::Crashed => "crashed",
        })
    }
}

/// Where a tenant ended up, fleet-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TenantStatus {
    /// A live supervised session protects the tenant.
    Protected,
    /// ε budget spent; latched fail-closed wherever it last ran.
    Exhausted,
    /// Restart budget spent (or service refused); latched fail-closed.
    Failed,
    /// Its persisted ε record read torn during evacuation: never
    /// re-placed, no counters anywhere.
    Quarantined,
    /// No surviving capacity could take it after a crash: denied
    /// service (its old cores stay latched on the dead host).
    Stranded,
}

impl std::fmt::Display for TenantStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TenantStatus::Protected => "protected",
            TenantStatus::Exhausted => "exhausted",
            TenantStatus::Failed => "failed",
            TenantStatus::Quarantined => "quarantined",
            TenantStatus::Stranded => "stranded",
        })
    }
}

/// One tenant's final accounting in a [`FleetReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantOutcome {
    /// Tenant name (`t000`, …).
    pub tenant: String,
    /// Fleet-wide status.
    pub status: TenantStatus,
    /// Current home host (the dead host for tenants that ended
    /// fail-closed there; `None` once quarantined or stranded).
    pub host: Option<usize>,
    /// Times this tenant was evacuated off a crashed host.
    pub evacuations: u32,
    /// Total ε drawn from this tenant's fleet-wide account.
    pub epsilon_spent: f64,
}

/// Aggregated health of one host shard, from the service plane's own
/// session statuses.
#[derive(Debug, Clone, PartialEq)]
pub struct HostHealth {
    /// Host index.
    pub host: usize,
    /// Failure-domain state.
    pub state: HostState,
    /// Sessions ever attached on this host.
    pub sessions: usize,
    /// Sessions per service status, in [`Status`] order.
    pub healthy: usize,
    /// See [`Status::Degraded`].
    pub degraded: usize,
    /// See [`Status::Restarting`].
    pub restarting: usize,
    /// See [`Status::Failed`].
    pub failed: usize,
    /// See [`Status::Exhausted`].
    pub exhausted: usize,
    /// See [`Status::Detached`].
    pub detached: usize,
}

/// Per-host health aggregation, from [`FleetSupervisor::health`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetHealth {
    /// One entry per host, in host order.
    pub hosts: Vec<HostHealth>,
}

/// The fleet's final accounting: per-tenant outcomes plus the storm
/// damage tally. `PartialEq` + serializable so replay tests compare
/// whole reports bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// The placement policy the fleet ran under.
    pub policy: String,
    /// Fleet sim-time advanced, nanoseconds.
    pub clock_ns: u64,
    /// Hosts crashed by the storm (or injected).
    pub crashes: u64,
    /// Host-degraded events absorbed.
    pub degrades: u64,
    /// Sessions drained off crashed hosts.
    pub evacuations: u64,
    /// Tenants quarantined on a torn ε record.
    pub quarantined: u64,
    /// Tenants stranded without surviving capacity.
    pub stranded: u64,
    /// Per-tenant outcomes, in tenant order.
    pub tenants: Vec<TenantOutcome>,
}

/// One scheduled storm event: at `step`, `host` crashes (or degrades).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StormHit {
    /// Storm step the event fires in.
    pub step: u64,
    /// Target host.
    pub host: usize,
    /// `true` = crash, `false` = degrade.
    pub crash: bool,
}

/// The seeded storm schedule as a pure function of
/// `(plan, hosts, steps)`: per-host [`FaultStream`]s on the
/// `fleet.host_crash` / `fleet.host_degrade` sites, drawn every step
/// for every host — including already-crashed ones, so the schedule
/// never depends on failure state and replays bit-identically.
/// [`FleetSupervisor::run_storm`] applies exactly this schedule (events
/// on crashed hosts are no-ops).
pub fn storm_schedule(plan: &FaultPlan, hosts: usize, steps: u64) -> Vec<StormHit> {
    if plan.host_crash <= 0.0 && plan.host_degrade <= 0.0 {
        return Vec::new();
    }
    let mut crash: Vec<FaultStream> = (0..hosts)
        .map(|h| FaultStream::new(plan, site::FLEET_HOST, h as u64))
        .collect();
    let mut degrade: Vec<FaultStream> = (0..hosts)
        .map(|h| FaultStream::new(plan, site::FLEET_STORM, h as u64))
        .collect();
    let mut out = Vec::new();
    for step in 0..steps {
        for h in 0..hosts {
            if crash[h].chance(plan.host_crash) {
                out.push(StormHit {
                    step,
                    host: h,
                    crash: true,
                });
            } else if degrade[h].chance(plan.host_degrade) {
                out.push(StormHit {
                    step,
                    host: h,
                    crash: false,
                });
            }
        }
    }
    out
}

/// One failure domain: a host and its resident service plane.
struct Shard {
    host: Host,
    plane: ServicePlane,
    crashed: bool,
    degrades: u64,
    crash_stream: Option<FaultStream>,
    degrade_stream: Option<FaultStream>,
}

/// One tenant's fleet-side record: identity, workload, and home.
struct TenantRecord {
    name: String,
    plan: WorkloadPlan,
    host: Option<usize>,
    core: Option<usize>,
    evacuations: u32,
    /// Terminal fleet-level override ([`TenantStatus::Quarantined`] /
    /// [`TenantStatus::Stranded`]); session-level terminal states read
    /// from the plane instead.
    flag: Option<TenantStatus>,
}

/// The fleet supervisor: owns every shard, the placement scheduler,
/// and the fleet-wide tenant ε accounts.
pub struct FleetSupervisor {
    cfg: FleetConfig,
    faults: FaultPlan,
    shards: Vec<Shard>,
    scheduler: Scheduler,
    ledgers: Arc<Mutex<TenantLedgers>>,
    tenants: Vec<TenantRecord>,
    clock_ns: u64,
    crashes: u64,
    evacuations: u64,
}

impl FleetSupervisor {
    /// Builds the fleet: one host + service plane per failure domain,
    /// then places and attaches every tenant under the policy. Tenants
    /// whose ledger refuses the first epoch register terminal,
    /// fail-closed, exactly as on a single host.
    ///
    /// # Errors
    ///
    /// [`AegisError::Config`] for an invalid configuration or a tenant
    /// population exceeding the policy's capacity;
    /// [`AegisError::Host`] if the substrate rejects a placement.
    pub fn deploy(
        cfg: FleetConfig,
        plan: &DefensePlan,
        app: &dyn SecretApp,
    ) -> Result<FleetSupervisor, AegisError> {
        cfg.validate()?;
        let faults = cfg.service.aegis.faults.unwrap_or_else(faults::plan);
        let store = cfg.service.ledger_dir.as_ref().map(|dir| {
            (
                ArtifactCache::with_faults(dir, faults),
                cfg.service.ledger_scope.clone(),
            )
        });
        let ledgers = Arc::new(Mutex::new(TenantLedgers::open(
            cfg.service.default_budget,
            store,
            faults,
        )));
        let mut shards = Vec::with_capacity(cfg.topology.hosts);
        for h in 0..cfg.topology.hosts {
            let host = Host::with_faults(
                cfg.arch,
                cfg.topology.cores_per_host(),
                derive_seed(cfg.seed, STREAM_FLEET_HOST, h as u64),
                faults,
            );
            let mut plane_cfg = cfg.service.clone();
            plane_cfg.seed = derive_seed(cfg.seed, STREAM_FLEET_PLANE, h as u64);
            let plane = ServicePlane::open(&host, plane_cfg, LedgerSlot::Shared(ledgers.clone()));
            let active = faults.is_active();
            shards.push(Shard {
                host,
                plane,
                crashed: false,
                degrades: 0,
                crash_stream: active.then(|| FaultStream::new(&faults, site::FLEET_HOST, h as u64)),
                degrade_stream: active
                    .then(|| FaultStream::new(&faults, site::FLEET_STORM, h as u64)),
            });
        }
        let mut scheduler = Scheduler::new(cfg.topology, cfg.policy);
        let alive = vec![true; cfg.topology.hosts];
        let mut tenants = Vec::with_capacity(cfg.tenants);
        for t in 0..cfg.tenants {
            let name = format!("t{t:03}");
            let secret = t % app.n_secrets();
            let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, STREAM_FLEET_APP, t as u64));
            let wplan = app.sample_plan(secret, &mut rng);
            let p = scheduler
                .place(t, &alive)
                .expect("capacity was validated against the policy");
            let shard = &mut shards[p.host];
            let vm = shard.host.launch_vm_pinned(&p.cores, SevMode::SevSnp)?;
            shard
                .host
                .attach_app(vm, 0, Box::new(PlanSource::new(wplan.clone())))?;
            match shard.plane.attach(&mut shard.host, vm, 0, plan, &name) {
                Ok(_) => {}
                // A refused first epoch (spent or poisoned account) is a
                // registered, latched, terminal session — the fleet
                // carries the tenant as fail-closed, not as an error.
                Err(AegisError::BudgetExhausted { .. }) | Err(AegisError::Service { .. }) => {}
                Err(err) => return Err(err),
            }
            tenants.push(TenantRecord {
                name,
                plan: wplan,
                host: Some(p.host),
                core: Some(p.cores[0]),
                evacuations: 0,
                flag: None,
            });
        }
        obs::counter_add("fleet.deploys", 1.0);
        obs::gauge_set("fleet.tenants", cfg.tenants as f64);
        Ok(FleetSupervisor {
            faults,
            cfg,
            shards,
            scheduler,
            ledgers,
            tenants,
            clock_ns: 0,
            crashes: 0,
            evacuations: 0,
        })
    }

    /// Advances fleet sim-time by `duration_ns`: every live shard runs
    /// its service plane (crashed hosts stay frozen). A step of at least
    /// 64 tenant-ms (tenants homed on live hosts × `duration_ns`) runs
    /// the shards on the `aegis-par` pool; a shorter one stays on the
    /// calling thread, where it saves the pool call's fixed cost (see
    /// `PARALLEL_STEP_TENANT_NS`). Shards
    /// are independent between fleet events: each owns its host, and a
    /// tenant's session, ε account and ledger record live on one shard at
    /// a time, so the outcome does not depend on the worker count — only
    /// the store journal's line order does.
    pub fn run(&mut self, duration_ns: u64) {
        let homed = self
            .tenants
            .iter()
            .filter(|r| r.host.is_some_and(|h| !self.shards[h].crashed))
            .count() as u64;
        let pool = if homed.saturating_mul(duration_ns) >= PARALLEL_STEP_TENANT_NS {
            Executor::from_config()
        } else {
            Executor::new(1)
        };
        let live: Vec<&mut Shard> = self.shards.iter_mut().filter(|s| !s.crashed).collect();
        pool.map(live, |_, shard| {
            shard.plane.run(&mut shard.host, duration_ns)
        });
        self.clock_ns += duration_ns;
    }

    /// Drives a seeded chaos storm: `steps` rounds of per-host fault
    /// draws (the schedule of [`storm_schedule`]) each followed by
    /// `step_ns` of fleet time. Crash events crash-and-evacuate the
    /// host; degrade events bounce every session on it through the
    /// watchdog. Inert without `host_crash`/`host_degrade` in the plan.
    pub fn run_storm(&mut self, steps: u64, step_ns: u64) {
        let _span = obs::span("fleet.storm");
        for _ in 0..steps {
            for h in 0..self.shards.len() {
                // Every host draws every step — crashed ones too — so
                // the schedule is independent of failure state.
                let crash = self.shards[h]
                    .crash_stream
                    .as_mut()
                    .is_some_and(|s| s.chance(self.faults.host_crash));
                let degrade = !crash
                    && self.shards[h]
                        .degrade_stream
                        .as_mut()
                        .is_some_and(|s| s.chance(self.faults.host_degrade));
                if crash {
                    self.inject_host_crash(h);
                } else if degrade {
                    self.inject_host_degrade(h);
                }
            }
            self.run(step_ns);
        }
    }

    /// Crashes host `h`: the shard freezes, *every* core on it latches
    /// fail-closed (a dead host never hands out clean counters), its
    /// live sessions drain, and each drained tenant is evacuated —
    /// ledger re-read from the store (torn ⇒ quarantine), re-placed on
    /// surviving capacity (none ⇒ stranded), and adopted by the
    /// destination plane under a fresh latched epoch. No-op on an
    /// already-crashed host.
    pub fn inject_host_crash(&mut self, h: usize) {
        if self.shards[h].crashed {
            return;
        }
        self.shards[h].crashed = true;
        self.crashes += 1;
        obs::counter_add("fleet.host_crashes", 1.0);
        faults::report("fleet", "host_crash", &[("host", h as u64)]);
        let records = {
            let shard = &mut self.shards[h];
            let records = shard.plane.evacuate_all(&mut shard.host);
            for c in 0..shard.host.n_cores() {
                shard.host.set_core_fail_closed(c, true);
            }
            records
        };
        for rec in records {
            self.evacuate(rec);
        }
    }

    /// Degrades host `h`: every running session bounces through the
    /// watchdog (detach, latch, backoff, epoch-reseeded redeploy) — the
    /// daemons on a degraded host cannot be trusted. No-op on a crashed
    /// host.
    pub fn inject_host_degrade(&mut self, h: usize) {
        if self.shards[h].crashed {
            return;
        }
        self.shards[h].degrades += 1;
        obs::counter_add("fleet.host_degrades", 1.0);
        faults::report("fleet", "host_degrade", &[("host", h as u64)]);
        let shard = &mut self.shards[h];
        shard.plane.force_restart_all(&mut shard.host);
    }

    /// One evacuated session lands somewhere safe — or nowhere, fail-
    /// closed.
    fn evacuate(&mut self, rec: crate::service::EvacRecord) {
        let t = self
            .tenants
            .iter()
            .position(|r| r.name == rec.tenant)
            .expect("evacuated sessions name fleet tenants");
        self.tenants[t].evacuations += 1;
        self.evacuations += 1;
        // The ε carry: the destination trusts the *store*, not whatever
        // the crashed host last held in memory.
        let poisoned = TenantLedgers::lock(&self.ledgers).reopen(&rec.tenant);
        if poisoned {
            self.tenants[t].flag = Some(TenantStatus::Quarantined);
            self.tenants[t].host = None;
            self.tenants[t].core = None;
            obs::counter_add("fleet.quarantined", 1.0);
            faults::report("fleet", "quarantine", &[("tenant", t as u64)]);
            return;
        }
        let alive: Vec<bool> = self.shards.iter().map(|s| !s.crashed).collect();
        let Some(p) = self.scheduler.place(t, &alive) else {
            self.tenants[t].flag = Some(TenantStatus::Stranded);
            self.tenants[t].host = None;
            self.tenants[t].core = None;
            obs::counter_add("fleet.stranded", 1.0);
            return;
        };
        let wplan = self.tenants[t].plan.clone();
        let shard = &mut self.shards[p.host];
        let vm = shard
            .host
            .launch_vm_pinned(&p.cores, SevMode::SevSnp)
            .expect("the scheduler placed on free cores");
        shard
            .host
            .attach_app(vm, 0, Box::new(PlanSource::new(wplan)))
            .expect("fresh vm ids are valid");
        // A refused adoption epoch leaves the session registered
        // terminal and latched on the destination — fail-closed, and
        // visible in the tenant's outcome.
        let _ = shard.plane.adopt(&mut shard.host, vm, 0, rec);
        self.tenants[t].host = Some(p.host);
        self.tenants[t].core = Some(p.cores[0]);
    }

    /// Per-host health, aggregated from each shard's service plane.
    pub fn health(&self) -> FleetHealth {
        let hosts = self
            .shards
            .iter()
            .enumerate()
            .map(|(h, shard)| {
                let report = shard.plane.health(&shard.host);
                let mut hh = HostHealth {
                    host: h,
                    state: HostState::Healthy,
                    sessions: report.sessions.len(),
                    healthy: 0,
                    degraded: 0,
                    restarting: 0,
                    failed: 0,
                    exhausted: 0,
                    detached: 0,
                };
                for s in &report.sessions {
                    match s.status {
                        Status::Healthy => hh.healthy += 1,
                        Status::Degraded => hh.degraded += 1,
                        Status::Restarting => hh.restarting += 1,
                        Status::Failed => hh.failed += 1,
                        Status::Exhausted => hh.exhausted += 1,
                        Status::Detached => hh.detached += 1,
                    }
                }
                hh.state = if shard.crashed {
                    HostState::Crashed
                } else if hh.degraded + hh.restarting > 0 {
                    HostState::Degraded
                } else {
                    HostState::Healthy
                };
                hh
            })
            .collect();
        FleetHealth { hosts }
    }

    /// The fleet's current accounting (see [`FleetReport`]).
    pub fn report(&self) -> FleetReport {
        let mut quarantined = 0;
        let mut stranded = 0;
        let tenants = self
            .tenants
            .iter()
            .map(|r| {
                let status = r.flag.unwrap_or_else(|| self.tenant_status(r));
                match status {
                    TenantStatus::Quarantined => quarantined += 1,
                    TenantStatus::Stranded => stranded += 1,
                    _ => {}
                }
                TenantOutcome {
                    tenant: r.name.clone(),
                    status,
                    host: r.host,
                    evacuations: r.evacuations,
                    epsilon_spent: TenantLedgers::lock(&self.ledgers).spent(&r.name),
                }
            })
            .collect();
        FleetReport {
            policy: self.cfg.policy.label().to_string(),
            clock_ns: self.clock_ns,
            crashes: self.crashes,
            degrades: self.shards.iter().map(|s| s.degrades).sum(),
            evacuations: self.evacuations,
            quarantined,
            stranded,
            tenants,
        }
    }

    /// Derives a tenant's fleet status from the *last* session bearing
    /// its name on its home host's plane.
    fn tenant_status(&self, r: &TenantRecord) -> TenantStatus {
        let Some(h) = r.host else {
            return TenantStatus::Stranded;
        };
        let shard = &self.shards[h];
        let report = shard.plane.health(&shard.host);
        match report
            .sessions
            .iter()
            .rev()
            .find(|s| s.tenant == r.name)
            .map(|s| s.status)
        {
            Some(Status::Healthy) | Some(Status::Degraded) | Some(Status::Restarting) => {
                TenantStatus::Protected
            }
            Some(Status::Exhausted) => TenantStatus::Exhausted,
            // A detached (or missing) session on the tenant's home host
            // means service ended outside the fleet protocol — report
            // fail-closed, never protected.
            Some(Status::Failed) | Some(Status::Detached) | None => TenantStatus::Failed,
        }
    }

    /// Shuts the fleet down cleanly: every live shard's plane shuts
    /// down (terminal latches stay sticky), the shared ε accounts
    /// release their gc pins, and the final report is returned.
    /// Crashed shards are left as they died — latched.
    pub fn shutdown(mut self) -> FleetReport {
        let report = self.report();
        for shard in &mut self.shards {
            if !shard.crashed {
                shard.plane.shutdown(&mut shard.host);
            }
        }
        TenantLedgers::lock(&self.ledgers).close();
        obs::counter_add("fleet.shutdowns", 1.0);
        report
    }

    // ---- accessors -----------------------------------------------------

    /// Hosts in the fleet.
    pub fn n_hosts(&self) -> usize {
        self.shards.len()
    }

    /// Tenants in the fleet.
    pub fn n_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// The placement policy in force.
    pub fn policy(&self) -> PlacementPolicy {
        self.cfg.policy
    }

    /// Fleet sim-time advanced so far.
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Shared view of host `h`'s substrate (for measurements).
    pub fn host(&self, h: usize) -> &Host {
        &self.shards[h].host
    }

    /// Failure-domain state of host `h`.
    pub fn host_state(&self, h: usize) -> HostState {
        if self.shards[h].crashed {
            HostState::Crashed
        } else {
            HostState::Healthy
        }
    }

    /// Tenant `t`'s current home as `(host, anchor core)`, `None` once
    /// quarantined or stranded.
    pub fn tenant_home(&self, t: usize) -> Option<(usize, usize)> {
        let r = &self.tenants[t];
        Some((r.host?, r.core?))
    }

    /// ε drawn so far from tenant `t`'s fleet-wide account.
    pub fn epsilon_spent(&self, t: usize) -> f64 {
        TenantLedgers::lock(&self.ledgers).spent(&self.tenants[t].name)
    }

    /// Whether tenant `t`'s ε account is poisoned (torn persisted
    /// record) — the quarantine precondition.
    pub fn tenant_poisoned(&self, t: usize) -> bool {
        TenantLedgers::lock(&self.ledgers).poisoned(&self.tenants[t].name)
    }

    /// The malicious hypervisor's measurement hook: records HPC traces
    /// on host `h` exactly as [`Host::record_trace`] would,
    /// advancing that host's clock (crashed hosts included — their
    /// latched cores read zero in every window, which is the property
    /// tests use this hook to verify).
    ///
    /// # Errors
    ///
    /// Propagates [`aegis_perf::PerfError`] from opening any monitor.
    pub fn record_host_trace(
        &mut self,
        h: usize,
        cores: &[usize],
        events: &[aegis_microarch::EventId],
        filter: aegis_microarch::OriginFilter,
        interval_ns: u64,
        duration_ns: u64,
    ) -> Result<Vec<aegis_perf::Trace>, aegis_perf::PerfError> {
        self.shards[h]
            .host
            .record_trace(cores, events, filter, interval_ns, duration_ns)
    }

    /// Lane-batched sibling of [`FleetSupervisor::record_host_trace`]:
    /// records every replica described by `lanes` on host `h` through
    /// [`Host::record_trace_multi_batch`] — one
    /// [`aegis_sev::LaneGuest`] per recorded core per replica, the
    /// host's clock untouched. Returns
    /// one `Vec<Trace>` per lane, ordered as `cores`, bit-identical to
    /// recording each replica on a detached fork of the shard.
    ///
    /// # Errors
    ///
    /// Propagates [`aegis_perf::PerfError`] from opening any monitor.
    #[allow(clippy::too_many_arguments)] // mirrors Host::record_trace_multi_batch
    pub fn record_host_trace_batch(
        &self,
        h: usize,
        cores: &[usize],
        lanes: Vec<Vec<aegis_sev::LaneGuest>>,
        events: &[aegis_microarch::EventId],
        filter: aegis_microarch::OriginFilter,
        interval_ns: u64,
        duration_ns: u64,
    ) -> Result<Vec<Vec<aegis_perf::Trace>>, aegis_perf::PerfError> {
        self.shards[h].host.record_trace_multi_batch(
            cores,
            lanes,
            events,
            filter,
            interval_ns,
            duration_ns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_schedule_is_pure_and_seed_sensitive() {
        let plan = FaultPlan {
            seed: 11,
            host_crash: 0.2,
            host_degrade: 0.3,
            ..FaultPlan::none()
        };
        let a = storm_schedule(&plan, 8, 16);
        let b = storm_schedule(&plan, 8, 16);
        assert_eq!(a, b, "same plan must replay the same schedule");
        assert!(!a.is_empty(), "these rates must fire within 16 steps");
        let reseeded = FaultPlan { seed: 12, ..plan };
        assert_ne!(
            a,
            storm_schedule(&reseeded, 8, 16),
            "a different seed must move the schedule"
        );
        assert!(
            storm_schedule(&FaultPlan::none(), 8, 16).is_empty(),
            "an inert plan schedules nothing"
        );
    }

    #[test]
    fn config_rejects_overcommit() {
        let cfg = FleetConfig::new(
            ServiceConfig::new(crate::AegisConfig::default()),
            FleetTopology {
                hosts: 2,
                sockets_per_host: 1,
                pairs_per_socket: 2,
            },
            PlacementPolicy::SmtOff,
            5, // 2 hosts × 2 pairs = 4 slots under SmtOff
        );
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, AegisError::Config { .. }), "{err}");
    }
}
