//! The fleet robustness sweep: a (placement policy × storm seed) grid
//! of whole-fleet chaos runs, persisted through the columnar store with
//! the same checkpoint-resume machinery as the fuzzer's recording pass.
//!
//! Every cell builds its *own* fleet inside the worker — fleets are
//! single-threaded state machines — under an **explicit** fault plan
//! `{seed: storm_seed, host_crash, host_degrade}`: cell physics never
//! depends on the ambient `AEGIS_FAULTS` plan, which governs only the
//! outer checkpoint/kill loop. Cell seeds are content-derived from
//! `(policy, storm_seed)`, so the grid is bit-identical at any worker
//! count and a killed run resumes to bit-identical cells.

use super::placement::{FleetTopology, PlacementPolicy};
use super::{FleetConfig, FleetSupervisor, TenantStatus};
use crate::error::AegisError;
use crate::plan::DefensePlan;
use crate::service::ServiceConfig;
use aegis_faults::FaultPlan;
use aegis_microarch::MicroArch;
use aegis_microarch::OriginFilter;
use aegis_obs as obs;
use aegis_par::{
    derive_seed, fingerprint, run_checkpointed, ArtifactCache, ArtifactKey, ColumnFrame,
    ColumnSchema, Columnar, Executor, FrameError, FrameReader, RowLog,
};
use aegis_sev::{LaneGuest, PlanSource};
use aegis_workloads::SecretApp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Seed stream tags for cell-seed derivation (fleet family, 0x30s).
const STREAM_FLEET_POLICY: u64 = 0x33;
const STREAM_FLEET_STORM: u64 = 0x34;
const STREAM_FLEET_PROBE: u64 = 0x35;

/// Shape of the post-storm attacker probe every cell runs through the
/// lane-batched recorder: replicas per probe and the recording window.
const XT_PROBE_LANES: usize = 4;
const XT_PROBE_INTERVAL_NS: u64 = 1_000_000;
const XT_PROBE_WINDOW_NS: u64 = 4_000_000;

/// The fleet sweep grid: every policy crossed with every storm seed.
#[derive(Debug, Clone)]
pub struct FleetSweepConfig {
    /// Placement policies to sweep (rows).
    pub policies: Vec<PlacementPolicy>,
    /// Storm seeds to sweep (columns) — each seeds an independent
    /// chaos schedule.
    pub storm_seeds: Vec<u64>,
    /// Shape of every cell's fleet.
    pub topology: FleetTopology,
    /// Tenants per cell.
    pub tenants: usize,
    /// Storm steps per cell.
    pub steps: u64,
    /// Fleet time per storm step.
    pub step_ns: u64,
    /// Per-host, per-step crash probability.
    pub host_crash: f64,
    /// Per-host, per-step degrade probability.
    pub host_degrade: f64,
    /// Service-plane template for every host (its `ledger_dir` is
    /// cleared per cell: concurrent cells reuse tenant names and must
    /// not share one ε store).
    pub service: ServiceConfig,
    /// Microarchitecture of every host.
    pub arch: MicroArch,
    /// Sweep-wide base seed (cell seeds derive from it and the cell's
    /// content).
    pub seed: u64,
}

/// One completed fleet cell: the final tally of a whole storm run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetCellOutcome {
    /// Placement policy of this cell.
    pub policy: PlacementPolicy,
    /// Storm seed of this cell.
    pub storm_seed: u64,
    /// Tenants still protected at shutdown.
    pub protected: u64,
    /// Tenants that spent their ε budget (latched).
    pub exhausted: u64,
    /// Tenants latched terminal by the supervisor.
    pub failed: u64,
    /// Tenants quarantined on a torn ε record.
    pub quarantined: u64,
    /// Tenants stranded without surviving capacity.
    pub stranded: u64,
    /// Sessions evacuated off crashed hosts.
    pub evacuations: u64,
    /// Hosts the storm crashed.
    pub crashes: u64,
    /// Host-degrade events absorbed.
    pub degrades: u64,
    /// Total ε the fleet's tenants drew.
    pub epsilon_spent: f64,
    /// Post-storm attacker probe: the mean pair-aggregate count the
    /// cross-tenant attacker observes on tenant 0's anchor pair,
    /// measured through the lane-batched recorder
    /// ([`super::FleetSupervisor::record_host_trace_batch`]). Zero when
    /// tenant 0 ended the storm without a home, or latched fail-closed
    /// where it died.
    pub xt_probe: f64,
}

/// The completed grid, in (policy-major, storm-seed-minor) unit order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSweepOutcome {
    /// One outcome per grid cell.
    pub cells: Vec<FleetCellOutcome>,
}

impl FleetSweepOutcome {
    /// The cells of one policy, in storm-seed order.
    pub fn cells_for(&self, policy: PlacementPolicy) -> Vec<&FleetCellOutcome> {
        self.cells.iter().filter(|c| c.policy == policy).collect()
    }
}

/// Checkpointable column image of a fully evaluated cell prefix, in
/// unit order.
struct FleetCellLog {
    policy_tags: Vec<u64>,
    storm_seeds: Vec<u64>,
    protected: Vec<u64>,
    exhausted: Vec<u64>,
    failed: Vec<u64>,
    quarantined: Vec<u64>,
    stranded: Vec<u64>,
    evacuations: Vec<u64>,
    crashes: Vec<u64>,
    degrades: Vec<u64>,
    epsilon_spent: Vec<f64>,
    xt_probes: Vec<f64>,
}

impl RowLog for FleetCellLog {
    type Row = FleetCellOutcome;

    fn of(rows: &[FleetCellOutcome]) -> FleetCellLog {
        let column = |field: fn(&FleetCellOutcome) -> u64| rows.iter().map(field).collect();
        FleetCellLog {
            policy_tags: column(|c| c.policy.tag()),
            storm_seeds: column(|c| c.storm_seed),
            protected: column(|c| c.protected),
            exhausted: column(|c| c.exhausted),
            failed: column(|c| c.failed),
            quarantined: column(|c| c.quarantined),
            stranded: column(|c| c.stranded),
            evacuations: column(|c| c.evacuations),
            crashes: column(|c| c.crashes),
            degrades: column(|c| c.degrades),
            epsilon_spent: rows.iter().map(|c| c.epsilon_spent).collect(),
            xt_probes: rows.iter().map(|c| c.xt_probe).collect(),
        }
    }

    fn into_rows(self) -> Vec<FleetCellOutcome> {
        (0..self.policy_tags.len())
            .map(|i| FleetCellOutcome {
                policy: PlacementPolicy::ALL[self.policy_tags[i] as usize],
                storm_seed: self.storm_seeds[i],
                protected: self.protected[i],
                exhausted: self.exhausted[i],
                failed: self.failed[i],
                quarantined: self.quarantined[i],
                stranded: self.stranded[i],
                evacuations: self.evacuations[i],
                crashes: self.crashes[i],
                degrades: self.degrades[i],
                epsilon_spent: self.epsilon_spent[i],
                xt_probe: self.xt_probes[i],
            })
            .collect()
    }
}

impl Columnar for FleetCellLog {
    fn schema() -> ColumnSchema {
        ColumnSchema::new("aegis/fleet-cells", 2)
    }

    fn encode_columns(&self, frame: &mut ColumnFrame) {
        frame.push_u64(self.policy_tags.clone());
        frame.push_u64(self.storm_seeds.clone());
        frame.push_u64(self.protected.clone());
        frame.push_u64(self.exhausted.clone());
        frame.push_u64(self.failed.clone());
        frame.push_u64(self.quarantined.clone());
        frame.push_u64(self.stranded.clone());
        frame.push_u64(self.evacuations.clone());
        frame.push_u64(self.crashes.clone());
        frame.push_u64(self.degrades.clone());
        frame.push_f64(self.epsilon_spent.clone());
        frame.push_f64(self.xt_probes.clone());
    }

    fn decode_columns(reader: &mut FrameReader) -> Result<Self, FrameError> {
        let log = FleetCellLog {
            policy_tags: reader.u64s()?,
            storm_seeds: reader.u64s()?,
            protected: reader.u64s()?,
            exhausted: reader.u64s()?,
            failed: reader.u64s()?,
            quarantined: reader.u64s()?,
            stranded: reader.u64s()?,
            evacuations: reader.u64s()?,
            crashes: reader.u64s()?,
            degrades: reader.u64s()?,
            epsilon_spent: reader.f64s()?,
            xt_probes: reader.f64s()?,
        };
        let n = log.policy_tags.len();
        if log.storm_seeds.len() != n
            || log.protected.len() != n
            || log.exhausted.len() != n
            || log.failed.len() != n
            || log.quarantined.len() != n
            || log.stranded.len() != n
            || log.evacuations.len() != n
            || log.crashes.len() != n
            || log.degrades.len() != n
            || log.epsilon_spent.len() != n
            || log.xt_probes.len() != n
            || log
                .policy_tags
                .iter()
                .any(|&t| t as usize >= PlacementPolicy::ALL.len())
        {
            return Err(FrameError::new(
                "fleet-cells: misaligned or invalid columns",
            ));
        }
        Ok(log)
    }
}

/// A stable fingerprint of the sweep-wide settings, folded into the
/// checkpoint key so a changed grid never resumes a stale checkpoint.
fn fleet_sweep_fingerprint(cfg: &FleetSweepConfig) -> u64 {
    fingerprint(&(
        (
            cfg.policies
                .iter()
                .map(PlacementPolicy::tag)
                .collect::<Vec<u64>>(),
            &cfg.storm_seeds,
            cfg.topology,
            cfg.tenants as u64,
        ),
        (
            cfg.steps,
            cfg.step_ns,
            cfg.host_crash.to_bits(),
            cfg.host_degrade.to_bits(),
        ),
        (
            &cfg.service.aegis,
            cfg.service.default_budget.to_bits(),
            cfg.seed,
        ),
    ))
}

/// The seed of one grid cell: a pure function of the sweep seed and the
/// cell's content — independent of grid position and worker assignment.
fn cell_seed(cfg: &FleetSweepConfig, policy: PlacementPolicy, storm_seed: u64) -> u64 {
    derive_seed(
        derive_seed(cfg.seed, STREAM_FLEET_POLICY, policy.tag()),
        STREAM_FLEET_STORM,
        storm_seed,
    )
}

/// Post-storm attacker probe: what the cross-tenant attacker's
/// pair-aggregate view of tenant 0's anchor pair counts once the storm
/// settles, recorded through the lane-batched path — [`XT_PROBE_LANES`]
/// replicas, each running an independently drawn secret of `app` on the
/// anchor's vCPU, in one [`record_host_trace_batch`] call instead of
/// per-replica host forks. A fail-closed (crashed) home reads all-zero
/// counters by construction, so the probe doubles as a cheap cell-level
/// check that latched hosts leak nothing.
///
/// [`record_host_trace_batch`]: super::FleetSupervisor::record_host_trace_batch
fn xt_probe(fleet: &FleetSupervisor, app: &dyn SecretApp, seed: u64) -> f64 {
    let Some((h, core)) = fleet.tenant_home(0) else {
        return 0.0;
    };
    let sibling = FleetTopology::sibling_of(core);
    let events = fleet.host(h).core(core).catalog().attack_events();
    let lanes: Vec<Vec<LaneGuest>> = (0..XT_PROBE_LANES)
        .map(|l| {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, STREAM_FLEET_PROBE, l as u64));
            let secret = rng.gen_range(0..app.n_secrets());
            let plan = app.sample_plan(secret, &mut rng);
            vec![
                LaneGuest {
                    app: Some(Box::new(PlanSource::new(plan))),
                    injector: None,
                },
                LaneGuest::default(),
            ]
        })
        .collect();
    match fleet.record_host_trace_batch(
        h,
        &[core, sibling],
        lanes,
        &events,
        OriginFilter::Any,
        XT_PROBE_INTERVAL_NS,
        XT_PROBE_WINDOW_NS,
    ) {
        Ok(traces) => {
            let total: f64 = traces
                .iter()
                .flatten()
                .map(|t| t.totals().iter().sum::<f64>())
                .sum();
            total / XT_PROBE_LANES as f64
        }
        Err(_) => 0.0,
    }
}

/// Runs one grid cell: deploy a fresh fleet, drive the storm, probe the
/// surviving attack surface, shut down, tally.
fn run_cell(
    cfg: &FleetSweepConfig,
    policy: PlacementPolicy,
    storm_seed: u64,
    plan: &DefensePlan,
    app: &dyn SecretApp,
) -> Result<FleetCellOutcome, AegisError> {
    let storm = FaultPlan {
        seed: storm_seed,
        host_crash: cfg.host_crash,
        host_degrade: cfg.host_degrade,
        ..FaultPlan::none()
    };
    let mut service = cfg.service.clone();
    service.aegis.faults = Some(storm);
    // Concurrent cells reuse tenant names; each fleet keeps its ε
    // accounts in memory instead of a shared store.
    service.ledger_dir = None;
    let mut fleet_cfg = FleetConfig::new(service, cfg.topology, policy, cfg.tenants);
    fleet_cfg.arch = cfg.arch;
    let mut fleet = FleetSupervisor::deploy(
        fleet_cfg.seed(cell_seed(cfg, policy, storm_seed)),
        plan,
        app,
    )?;
    fleet.run_storm(cfg.steps, cfg.step_ns);
    let probe = xt_probe(&fleet, app, cell_seed(cfg, policy, storm_seed));
    let report = fleet.shutdown();
    let mut cell = FleetCellOutcome {
        policy,
        storm_seed,
        protected: 0,
        exhausted: 0,
        failed: 0,
        quarantined: 0,
        stranded: 0,
        evacuations: report.evacuations,
        crashes: report.crashes,
        degrades: report.degrades,
        epsilon_spent: 0.0,
        xt_probe: probe,
    };
    for t in &report.tenants {
        match t.status {
            TenantStatus::Protected => cell.protected += 1,
            TenantStatus::Exhausted => cell.exhausted += 1,
            TenantStatus::Failed => cell.failed += 1,
            TenantStatus::Quarantined => cell.quarantined += 1,
            TenantStatus::Stranded => cell.stranded += 1,
        }
        cell.epsilon_spent += t.epsilon_spent;
    }
    Ok(cell)
}

/// Evaluates the whole (policy × storm seed) grid, sharded over the
/// worker pool, checkpointing through `cache` under an active ambient
/// fault plan exactly like the defense sweep: worker-count-sized chunks
/// through [`run_checkpointed`], whose `kill_after` point aborts a first
/// run so the resumed one completes bit-identically.
///
/// # Errors
///
/// [`AegisError::Config`] for an empty grid or a cell whose tenant
/// population exceeds its policy's capacity; any cell error is
/// propagated.
pub fn fleet_sweep(
    cache: &ArtifactCache,
    cfg: &FleetSweepConfig,
    plan: &DefensePlan,
    app: &dyn SecretApp,
) -> Result<FleetSweepOutcome, AegisError> {
    let mut span = obs::span("fleet.sweep");
    if cfg.policies.is_empty() || cfg.storm_seeds.is_empty() {
        return Err(AegisError::config(
            "fleet-sweep",
            "empty policy or seed grid",
        ));
    }
    let units: Vec<(PlacementPolicy, u64)> = cfg
        .policies
        .iter()
        .flat_map(|&p| cfg.storm_seeds.iter().map(move |&s| (p, s)))
        .collect();
    span.set_sim_ns(cfg.steps * cfg.step_ns * units.len() as u64);
    let ckpt_key = ArtifactKey::of("fleet-sweep-ckpt", &fleet_sweep_fingerprint(cfg));
    let cells = run_checkpointed::<FleetCellLog, _, AegisError, _>(
        cache,
        &cache.fault_plan(),
        &ckpt_key,
        "fleet.sweep",
        &units,
        Executor::from_config().threads(),
        |chunk| {
            Executor::from_config()
                .map_with(
                    chunk.to_vec(),
                    |_worker| (),
                    |(), _unit, (policy, storm_seed)| run_cell(cfg, policy, storm_seed, plan, app),
                )
                .into_iter()
                .collect()
        },
    )?;
    obs::counter_add("fleet.sweep.cells", cells.len() as f64);
    Ok(FleetSweepOutcome { cells })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_seeds_are_content_derived() {
        let cfg = FleetSweepConfig {
            policies: vec![PlacementPolicy::Packed, PlacementPolicy::Spread],
            storm_seeds: vec![1, 2],
            topology: FleetTopology {
                hosts: 2,
                sockets_per_host: 1,
                pairs_per_socket: 2,
            },
            tenants: 2,
            steps: 4,
            step_ns: 2_000_000,
            host_crash: 0.1,
            host_degrade: 0.1,
            service: ServiceConfig::new(crate::AegisConfig::default()),
            arch: MicroArch::AmdEpyc7252,
            seed: 9,
        };
        assert_eq!(
            cell_seed(&cfg, PlacementPolicy::Packed, 1),
            cell_seed(&cfg, PlacementPolicy::Packed, 1)
        );
        assert_ne!(
            cell_seed(&cfg, PlacementPolicy::Packed, 1),
            cell_seed(&cfg, PlacementPolicy::Spread, 1)
        );
        assert_ne!(
            cell_seed(&cfg, PlacementPolicy::Packed, 1),
            cell_seed(&cfg, PlacementPolicy::Packed, 2)
        );
    }

    #[test]
    fn log_round_trips_through_results() {
        let cell = FleetCellOutcome {
            policy: PlacementPolicy::SmtOff,
            storm_seed: 3,
            protected: 5,
            exhausted: 1,
            failed: 0,
            quarantined: 1,
            stranded: 0,
            evacuations: 2,
            crashes: 1,
            degrades: 4,
            epsilon_spent: 6.5,
            xt_probe: 123.5,
        };
        let log = FleetCellLog::of(&[cell]);
        assert_eq!(log.into_rows(), vec![cell]);
    }
}
