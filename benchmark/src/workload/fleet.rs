//! `fleet-storm`: the fleet plane under a seeded chaos storm. One job is
//! one fleet — deploy 32 tenants on 8 hosts × 5 SMT pairs, run storm
//! steps of 10 ms sim time, probe the surviving attack surface through
//! the lane-batched recorder, shut down — cycling over the four
//! placement policies and two storm seeds. Each step is one latency
//! sample. After the loop one placement-vs-attacker table runs. The
//! tenants' plan is built in setup with the `aegis offline` settings.

use super::offline::cli_config;
use super::{digest, dir_bytes, secs, Cx, Workload, ARCH};
use aegis::isa::IsaCatalog;
use aegis::microarch::{EventCatalog, OriginFilter, ResponseMatrix};
use aegis::par::derive_seed;
use aegis::sev::{LaneGuest, PlanSource};
use aegis::workloads::{KeystrokeApp, SecretApp};
use aegis::{
    policy_attack_table, storm_schedule, AegisConfig, AegisPipeline, CrossTenantConfig,
    DefensePlan, FaultPlan, FleetConfig, FleetReport, FleetSupervisor, FleetTopology,
    PlacementPolicy, ServiceConfig, TenantStatus,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const TOPOLOGY: FleetTopology = FleetTopology {
    hosts: 8,
    sockets_per_host: 1,
    pairs_per_socket: 5,
};
const TENANTS: usize = 32;
/// Storm steps per fleet.
const STEPS: u64 = 500;
const STEP_NS: u64 = 10_000_000;
const HOST_CRASH: f64 = 3e-4;
const HOST_DEGRADE: f64 = 1.5e-3;
/// Storm seeds cycle over `seed, seed + 1`.
const STORM_SEEDS: u64 = 2;
const PROBE_LANES: usize = 8;
const PROBE_WINDOW_NS: u64 = 20_000_000;

pub struct FleetStorm {
    seed: u64,
    app: KeystrokeApp,
    cfg: AegisConfig,
    plan: Option<DefensePlan>,
}

impl FleetStorm {
    pub fn new(seed: u64) -> Self {
        FleetStorm {
            seed,
            app: KeystrokeApp::with_window(300_000_000),
            cfg: cli_config(seed),
            plan: None,
        }
    }

    /// Runs fleet `k`; returns its step latencies.
    fn fleet(&self, cx: &mut Cx, k: usize) -> Vec<f64> {
        let policy = PlacementPolicy::ALL[k % PlacementPolicy::ALL.len()];
        let storm_seed = self
            .seed
            .wrapping_add((k / PlacementPolicy::ALL.len()) as u64 % STORM_SEEDS);
        let key = format!("fleet/{}/s{}/storm{storm_seed}", policy.label(), self.seed);
        let storm = FaultPlan {
            seed: storm_seed,
            host_crash: HOST_CRASH,
            host_degrade: HOST_DEGRADE,
            ..FaultPlan::none()
        };
        let mut aegis = self.cfg;
        aegis.faults = Some(storm);
        let ledger = cx.work_dir.join(format!("ledger-{k}"));
        let cfg = FleetConfig::new(
            ServiceConfig::new(aegis).ledger_dir(&ledger),
            TOPOLOGY,
            policy,
            TENANTS,
        )
        .seed(self.seed);
        let (expected, event_steps) = expected_damage(&storm, STEPS);
        let plan = self.plan.as_ref().expect("setup built the plan");

        let mut samples = Vec::with_capacity(STEPS as usize);
        let span = cx.trace.begin("op");
        let deployed = cx.trace.timed("fleet.deploy", || {
            FleetSupervisor::deploy(cfg, plan, &self.app)
        });
        let mut fleet = match deployed {
            Ok(fleet) => fleet,
            Err(e) => {
                cx.trace.end(span);
                cx.op(key, Err(e.to_string()));
                return samples;
            }
        };
        for event in event_steps {
            let (name, count) = if event {
                ("fleet.event_step", "fleet.event_steps")
            } else {
                ("fleet.quiet_step", "fleet.quiet_steps")
            };
            let t0 = Instant::now();
            cx.trace.timed(name, || fleet.run_storm(1, STEP_NS));
            let dt = secs(t0);
            samples.push(dt);
            cx.add(count, 1.0);
            cx.add(&format!("{count}_s"), dt);
        }
        let probe = cx
            .trace
            .timed("fleet.probe", || probe(&fleet, &self.app, storm_seed));
        let report = cx.trace.timed("fleet.shutdown", || fleet.shutdown());
        cx.trace.end(span);

        cx.add("store.ledger_bytes", dir_bytes(&ledger) as f64);
        let _ = std::fs::remove_dir_all(&ledger);
        let outcome = probe.and_then(|probe| {
            check_report(&report, expected)?;
            cx.add("fleet.fleets", 1.0);
            cx.add("fleet.crashes", report.crashes as f64);
            cx.add("fleet.degrades", report.degrades as f64);
            cx.add("fleet.evacuations", report.evacuations as f64);
            let protected = report
                .tenants
                .iter()
                .filter(|t| t.status == TenantStatus::Protected)
                .count();
            cx.add("fleet.tenants_protected", protected as f64);
            Ok(digest(&(&report, probe)))
        });
        cx.op(key, outcome);
        samples
    }
}

impl Workload for FleetStorm {
    fn setup(&mut self, cx: &mut Cx) -> Result<(), String> {
        let seed = self.seed;
        cx.trace.timed("setup.catalogs", || {
            EventCatalog::shared(ARCH);
            ResponseMatrix::shared(ARCH);
            IsaCatalog::shared(ARCH.vendor(), seed);
        });
        let span = cx.trace.begin("setup.plans");
        let (mut host, vm) = super::template(seed)?;
        let plan = AegisPipeline::offline(&mut host, vm, 0, &self.app, &self.cfg)
            .map_err(|e| e.to_string())?;
        cx.trace.end(span);
        self.plan = Some(plan);
        let span = cx.trace.begin("setup.warmup_op");
        self.fleet(cx, 0);
        cx.trace.end(span);
        Ok(())
    }

    fn job(&mut self, k: usize, cx: &mut Cx) -> Vec<f64> {
        self.fleet(cx, k)
    }

    fn finish(&mut self, cx: &mut Cx) {
        let xt = CrossTenantConfig {
            window_ns: 300_000_000,
            seed: self.seed,
            ..CrossTenantConfig::default()
        };
        let span = cx.trace.begin("op");
        let table = cx.trace.timed("fleet.xt_table", || {
            policy_attack_table(&PlacementPolicy::ALL, &self.app, None, &xt)
        });
        cx.trace.end(span);
        let outcome = table.map_err(|e| e.to_string()).and_then(|table| {
            let packed = table
                .iter()
                .find(|c| c.policy == PlacementPolicy::Packed)
                .ok_or("no Packed row")?;
            for cell in &table {
                let isolating = cell.policy != PlacementPolicy::Packed;
                if cell.co_resident == isolating {
                    return Err(format!(
                        "{} co-residency is {}",
                        cell.policy.label(),
                        cell.co_resident
                    ));
                }
                if isolating && cell.accuracy >= packed.accuracy {
                    return Err(format!(
                        "{} accuracy {} is not below Packed {}",
                        cell.policy.label(),
                        cell.accuracy,
                        packed.accuracy
                    ));
                }
            }
            Ok(digest(&table))
        });
        cx.op(format!("xt-table/s{}", self.seed), outcome);
    }
}

/// What the storm schedule — a pure function of the plan — says the
/// fleet must report: `(crashes, degrades)`, plus which steps land a hit
/// on a live host (the event steps). Hits on crashed hosts are no-ops.
fn expected_damage(storm: &FaultPlan, steps: u64) -> ((u64, u64), Vec<bool>) {
    let mut crashed = [false; TOPOLOGY.hosts];
    let mut event = vec![false; steps as usize];
    let (mut crashes, mut degrades) = (0, 0);
    for hit in storm_schedule(storm, TOPOLOGY.hosts, steps) {
        if crashed[hit.host] {
            continue;
        }
        event[hit.step as usize] = true;
        if hit.crash {
            crashed[hit.host] = true;
            crashes += 1;
        } else {
            degrades += 1;
        }
    }
    ((crashes, degrades), event)
}

/// Invariants of a fleet report: the storm damage matches its schedule
/// and every tenant is counted in exactly one status.
fn check_report(report: &FleetReport, (crashes, degrades): (u64, u64)) -> Result<(), String> {
    if (report.crashes, report.degrades) != (crashes, degrades) {
        return Err(format!(
            "storm damage {}/{} differs from its schedule {crashes}/{degrades}",
            report.crashes, report.degrades
        ));
    }
    let mut names: Vec<&str> = report.tenants.iter().map(|t| t.tenant.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    if names.len() != TENANTS || report.tenants.len() != TENANTS {
        return Err(format!(
            "{} tenants reported, {TENANTS} deployed",
            names.len()
        ));
    }
    let count = |s: TenantStatus| report.tenants.iter().filter(|t| t.status == s).count() as u64;
    if count(TenantStatus::Quarantined) != report.quarantined
        || count(TenantStatus::Stranded) != report.stranded
    {
        return Err("quarantined/stranded tallies disagree with tenant statuses".into());
    }
    if let Some(t) = report
        .tenants
        .iter()
        .find(|t| t.status == TenantStatus::Protected && t.epsilon_spent <= 0.0)
    {
        return Err(format!("protected tenant {} was never charged ε", t.tenant));
    }
    Ok(())
}

/// The post-storm probe: the hypervisor records tenant 0's core pair
/// through the lane-batched recorder. A crashed home must read zero
/// (fail-closed). Returns the mean counter total per lane.
fn probe(fleet: &FleetSupervisor, app: &dyn SecretApp, seed: u64) -> Result<f64, String> {
    let Some((h, core)) = fleet.tenant_home(0) else {
        return Ok(0.0);
    };
    let events = fleet.host(h).core(core).catalog().attack_events();
    let lanes: Vec<Vec<LaneGuest>> = (0..PROBE_LANES)
        .map(|l| {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x62, l as u64));
            let secret = rng.gen_range(0..app.n_secrets());
            vec![
                LaneGuest {
                    app: Some(Box::new(PlanSource::new(app.sample_plan(secret, &mut rng)))),
                    injector: None,
                },
                LaneGuest::default(),
            ]
        })
        .collect();
    let traces = fleet
        .record_host_trace_batch(
            h,
            &[core, FleetTopology::sibling_of(core)],
            lanes,
            &events,
            OriginFilter::Any,
            1_000_000,
            PROBE_WINDOW_NS,
        )
        .map_err(|e| e.to_string())?;
    let total: f64 = traces
        .iter()
        .flatten()
        .map(|t| t.totals().iter().sum::<f64>())
        .sum::<f64>()
        / PROBE_LANES as f64;
    if fleet.host_state(h) == aegis::HostState::Crashed && total != 0.0 {
        return Err(format!("crashed host {h} leaked counter total {total}"));
    }
    Ok(total)
}
