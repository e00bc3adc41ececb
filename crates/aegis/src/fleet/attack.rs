//! The cross-tenant honest-but-curious attacker: a co-tenant (plus the
//! host's perf daemons) aggregating counters over one tenant's SMT core
//! pair to classify a *neighbouring* tenant's secret.
//!
//! This is the fleet-level version of the paper's threat model: the
//! attacker cannot name the victim's core, but it can read everything
//! scheduled onto its own pair. Whether that pair *contains* the victim
//! is exactly what the placement policy decides — so attacker accuracy
//! becomes a measurable function of the placement knob:
//!
//! - [`PlacementPolicy::Packed`] co-locates tenants on sibling threads:
//!   the victim's counters land in the attacker's aggregate and an
//!   undefended workload classifies well above chance;
//! - [`PlacementPolicy::SmtOff`] / [`PlacementPolicy::CorePairExclusive`]
//!   keep every pair single-tenant: the aggregate carries no foreign
//!   signal and accuracy collapses to chance;
//! - [`PlacementPolicy::Spread`] is load-dependent: chance while
//!   headroom lasts, [`Packed`]-like under pressure.
//!
//! [`Packed`]: PlacementPolicy::Packed
//!
//! Measurement runs on the lane-batched acquisition path: every
//! `(secret, rep)` unit becomes one lane of a two-core
//! [`CoreBatch`](aegis_microarch::CoreBatch) lane group driven by
//! [`Host::record_trace_multi_batch`], instead of a full detached
//! host fork per unit. Lane tiles are sharded over the
//! `aegis-par` pool with per-unit derived seeds — bit-identical at any
//! worker count and bit-identical to the scalar per-fork reference
//! (`cross_tenant_accuracy_scalar`), which the unit tests keep as the
//! pinned oracle. Both paths always run under an inert fault plan so
//! accuracy tables never depend on the ambient `AEGIS_FAULTS`
//! environment.

use super::placement::{FleetTopology, PlacementPolicy, Scheduler};
use crate::error::AegisError;
use crate::evaluate::{Attacker, ClassifierAttack};
use crate::pipeline::DefenseDeployment;
use aegis_attack::{trace_features_into, Dataset};
use aegis_faults::FaultPlan;
use aegis_microarch::{CoreBatch, EventId, MicroArch, OriginFilter};
use aegis_obs as obs;
use aegis_par::{derive_seed, Executor};
use aegis_perf::Trace;
use aegis_sev::{ActivitySource, Host, LaneGuest, PlanSource, SevMode, VmId};
use aegis_workloads::SecretApp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Seed stream tags for the cross-tenant attacker's independent RNG
/// consumers (disjoint from the fleet streams 0x30–0x32).
const STREAM_XT_HOST: u64 = 0x40;
const STREAM_XT_VICTIM: u64 = 0x41;
const STREAM_XT_DECOY: u64 = 0x42;
const STREAM_XT_NOISE: u64 = 0x43;
const STREAM_XT_TRAIN: u64 = 0x44;

/// Units per parallel work item on the batched path: one cache-sized
/// [`CoreBatch`] tile of the two-core lane group, so each worker call
/// maps onto exactly one internal tile of the batched recorder.
const LANE_TILE_UNITS: usize = CoreBatch::TILE_LANES / 2;

/// Settings for one cross-tenant accuracy measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrossTenantConfig {
    /// Tenants on the host (≥ 2: tenant 0 is the attacker's anchor,
    /// tenant 1 the victim, the rest background decoys).
    pub tenants: usize,
    /// Traces per victim secret (≥ 2; even reps train, odd reps test).
    pub traces_per_secret: usize,
    /// Monitoring window (clamped to the app's window).
    pub window_ns: u64,
    /// Sampling interval.
    pub interval_ns: u64,
    /// Average-pooling factor on each event row.
    pub pool: usize,
    /// Base seed; every unit derives its own streams.
    pub seed: u64,
    /// Simulated microarchitecture.
    pub arch: MicroArch,
}

impl Default for CrossTenantConfig {
    fn default() -> Self {
        CrossTenantConfig {
            tenants: 4,
            traces_per_secret: 8,
            window_ns: 200_000_000,
            interval_ns: 1_000_000,
            pool: 10,
            seed: 7,
            arch: MicroArch::AmdEpyc7252,
        }
    }
}

/// One row of the placement-vs-attacker table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyAttackCell {
    /// The placement policy measured.
    pub policy: PlacementPolicy,
    /// Whether the policy put a foreign tenant on the anchor pair's
    /// sibling thread (the leakage precondition).
    pub co_resident: bool,
    /// Test accuracy of the classifier on the victim's secret.
    pub accuracy: f64,
}

/// The placement-shaped substrate both measurement paths share: one
/// host, tenants placed by the policy's [`Scheduler`], and the attack
/// geometry (anchor pair, events, window, unit list) resolved once.
struct XtSetup {
    host: Host,
    vms: Vec<VmId>,
    anchor: usize,
    sibling: usize,
    co_resident: bool,
    events: [EventId; 4],
    window: u64,
    n_secrets: usize,
    units: Vec<(usize, usize)>,
}

fn xt_setup(
    policy: PlacementPolicy,
    app: &dyn SecretApp,
    cfg: &CrossTenantConfig,
) -> Result<XtSetup, AegisError> {
    if cfg.tenants < 2 {
        return Err(AegisError::config(
            "tenants",
            "need an attacker and a victim",
        ));
    }
    if cfg.traces_per_secret < 2 {
        return Err(AegisError::config(
            "traces_per_secret",
            "need at least one training and one test trace",
        ));
    }
    let topo = FleetTopology {
        hosts: 1,
        sockets_per_host: 1,
        pairs_per_socket: cfg.tenants,
    };
    // Inert faults: accuracy tables are physics, not robustness runs,
    // and must not move under an ambient AEGIS_FAULTS plan.
    let mut host = Host::with_faults(
        cfg.arch,
        topo.cores_per_host(),
        derive_seed(cfg.seed, STREAM_XT_HOST, 0),
        FaultPlan::none(),
    );
    let mut scheduler = Scheduler::new(topo, policy);
    let alive = [true];
    let mut vms = Vec::with_capacity(cfg.tenants);
    let mut anchor = 0;
    for t in 0..cfg.tenants {
        let p = scheduler
            .place(t, &alive)
            .expect("the topology holds one pair per tenant");
        if t == 0 {
            anchor = p.cores[0];
        }
        vms.push(host.launch_vm_pinned(&p.cores, SevMode::SevSnp)?);
    }
    let sibling = FleetTopology::sibling_of(anchor);
    let co_resident = scheduler.co_resident(0, anchor).is_some();
    let events = host.core(anchor).catalog().attack_events();
    let window = cfg.window_ns.min(app.window_ns());
    let n_secrets = app.n_secrets();
    let units: Vec<(usize, usize)> = (0..n_secrets)
        .flat_map(|s| (0..cfg.traces_per_secret).map(move |r| (s, r)))
        .collect();
    Ok(XtSetup {
        host,
        vms,
        anchor,
        sibling,
        co_resident,
        events,
        window,
        n_secrets,
        units,
    })
}

/// Tenant index whose vCPU 0 is scheduled on `core`, if any. Lane
/// construction only materializes sources for vCPU 0 — apps and
/// obfuscators are deployed there, so a pair thread holding a higher
/// vCPU (exclusive policies) or nothing at all carries no sources.
fn role_of(host: &Host, vms: &[VmId], core: usize) -> Option<usize> {
    match host.assignment_of(core) {
        Some((vm, 0)) => vms.iter().position(|&v| v == vm),
        _ => None,
    }
}

/// The activity sources one replica attaches to the vCPU-0 tenant
/// `role` on a recorded core: the victim (tenant 1) runs the labeled
/// secret, bystanders an independently drawn decoy, and the attacker
/// (tenant 0) parks its own vCPU — it controls its workload, and idling
/// maximises the foreign signal in its aggregate. Every seed derives
/// from `(unit, tenant)` alone, so lanes are order-independent and
/// bit-identical to the scalar path's per-fork attachments.
fn lane_guest(
    role: Option<usize>,
    secret: usize,
    unit: usize,
    n_secrets: usize,
    app: &dyn SecretApp,
    defense: Option<&DefenseDeployment>,
    cfg: &CrossTenantConfig,
) -> LaneGuest {
    let Some(j) = role else {
        return LaneGuest::default();
    };
    let plan = match j {
        0 => None,
        1 => {
            let mut rng =
                StdRng::seed_from_u64(derive_seed(cfg.seed, STREAM_XT_VICTIM, unit as u64));
            Some(app.sample_plan(secret, &mut rng))
        }
        _ => {
            let mut rng = StdRng::seed_from_u64(derive_seed(
                cfg.seed,
                STREAM_XT_DECOY,
                (unit * cfg.tenants + j) as u64,
            ));
            let decoy = rng.gen_range(0..n_secrets);
            Some(app.sample_plan(decoy, &mut rng))
        }
    };
    LaneGuest {
        app: plan.map(|p| Box::new(PlanSource::new(p)) as Box<dyn ActivitySource>),
        injector: defense.map(|d| {
            Box::new(d.make_obfuscator(derive_seed(
                cfg.seed,
                STREAM_XT_NOISE,
                (unit * cfg.tenants + j) as u64,
            ))) as Box<dyn ActivitySource>
        }),
    }
}

/// Trains the classifier and emits the table cell — the tail both
/// measurement paths share.
fn score_cell(
    policy: PlacementPolicy,
    co_resident: bool,
    cfg: &CrossTenantConfig,
    train: &Dataset,
    test: &Dataset,
) -> PolicyAttackCell {
    let attacker = ClassifierAttack::fit(train, derive_seed(cfg.seed, STREAM_XT_TRAIN, 0));
    let accuracy = attacker.accuracy(test);
    obs::gauge_set("fleet.cross_tenant.accuracy", accuracy);
    PolicyAttackCell {
        policy,
        co_resident,
        accuracy,
    }
}

/// Measures cross-tenant attacker accuracy under one placement policy.
///
/// One simulated host is shaped so the policy's tenancy rules are the
/// only variable: `tenants` SMT pairs, so exclusive policies always
/// have room to isolate. Tenants are placed by the policy's
/// [`Scheduler`]; the attacker then records both threads of *tenant
/// 0's* pair, sums them element-wise (its pair-aggregate view), and
/// trains a classifier against tenant 1's secret. With `defense` set, a
/// fresh obfuscator is deployed on every tenant per trace.
///
/// Acquisition is lane-batched: the `(secret, rep)` units become
/// contiguous lanes of [`Host::record_trace_multi_batch`], tiled into
/// `LANE_TILE_UNITS`-unit work items over the `aegis-par` pool. Each
/// worker folds its tile's pair-aggregate traces into a flat feature
/// buffer through per-worker scratch — no per-unit host fork, trace
/// clone, or feature `Vec` is allocated. The result is bit-identical to
/// the scalar per-fork reference the unit tests keep.
///
/// # Errors
///
/// [`AegisError::Config`] for fewer than 2 tenants or fewer than 2
/// traces per secret; [`AegisError::Host`] if the substrate rejects a
/// placement.
pub fn cross_tenant_accuracy(
    policy: PlacementPolicy,
    app: &dyn SecretApp,
    defense: Option<&DefenseDeployment>,
    cfg: &CrossTenantConfig,
) -> Result<PolicyAttackCell, AegisError> {
    let mut span = obs::span("fleet.cross_tenant");
    let s = xt_setup(policy, app, cfg)?;
    span.set_sim_ns(s.window * s.units.len() as u64);
    let pair = [s.anchor, s.sibling];
    let roles = [
        role_of(&s.host, &s.vms, s.anchor),
        role_of(&s.host, &s.vms, s.sibling),
    ];
    let (host, events, window, n_secrets) = (&s.host, s.events, s.window, s.n_secrets);
    let tiles: Vec<&[(usize, usize)]> = s.units.chunks(LANE_TILE_UNITS).collect();
    type TileRows = Result<(Vec<f64>, usize), aegis_perf::PerfError>;
    let rows: Vec<TileRows> = Executor::from_config().map_with(
        tiles,
        |_worker| (Trace::new(Vec::new(), 1), Vec::new()),
        |(agg, feats), tile_ix, tile| {
            let base = tile_ix * LANE_TILE_UNITS;
            let lanes: Vec<Vec<LaneGuest>> = tile
                .iter()
                .enumerate()
                .map(|(i, &(secret, _rep))| {
                    roles
                        .iter()
                        .map(|&role| {
                            lane_guest(role, secret, base + i, n_secrets, app, defense, cfg)
                        })
                        .collect()
                })
                .collect();
            let traces = host.record_trace_multi_batch(
                &pair,
                lanes,
                &events,
                OriginFilter::Any,
                cfg.interval_ns,
                window,
            )?;
            let mut flat = Vec::new();
            for lane_traces in &traces {
                sum_traces_into(lane_traces, agg);
                trace_features_into(agg, cfg.pool, feats);
                flat.extend_from_slice(feats);
            }
            Ok((flat, traces.len()))
        },
    );
    let mut train = Dataset::new(Vec::new(), Vec::new(), s.n_secrets);
    let mut test = Dataset::new(Vec::new(), Vec::new(), s.n_secrets);
    for (tile_ix, tile) in rows.into_iter().enumerate() {
        let (flat, n_lanes) = tile.map_err(AegisError::from)?;
        let stride = flat.len().checked_div(n_lanes).unwrap_or(0);
        let units = &s.units[tile_ix * LANE_TILE_UNITS..];
        for (i, &(secret, rep)) in units.iter().take(n_lanes).enumerate() {
            let row = &flat[i * stride..(i + 1) * stride];
            if rep % 2 == 0 {
                train.push_slice(row, secret);
            } else {
                test.push_slice(row, secret);
            }
        }
    }
    Ok(score_cell(policy, s.co_resident, cfg, &train, &test))
}

/// Runs [`cross_tenant_accuracy`] for each policy — the fleet's
/// defense-metric table proving which placement knobs move attacker
/// accuracy.
///
/// # Errors
///
/// Propagates the first failing cell's error.
pub fn policy_attack_table(
    policies: &[PlacementPolicy],
    app: &dyn SecretApp,
    defense: Option<&DefenseDeployment>,
    cfg: &CrossTenantConfig,
) -> Result<Vec<PolicyAttackCell>, AegisError> {
    policies
        .iter()
        .map(|&p| cross_tenant_accuracy(p, app, defense, cfg))
        .collect()
}

/// Element-wise sum of same-shape traces into `agg`, reusing `agg`'s
/// row allocations: the attacker's aggregate view of a core pair (it
/// reads both siblings but cannot separate them).
fn sum_traces_into(traces: &[Trace], agg: &mut Trace) {
    agg.events.clone_from(&traces[0].events);
    agg.interval_ns = traces[0].interval_ns;
    agg.data.resize_with(traces[0].data.len(), Vec::new);
    for (row, src) in agg.data.iter_mut().zip(&traces[0].data) {
        row.clone_from(src);
    }
    for t in &traces[1..] {
        for (row, other) in agg.data.iter_mut().zip(&t.data) {
            for (a, b) in row.iter_mut().zip(other) {
                *a += b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar per-fork reference for [`cross_tenant_accuracy`]: one
    /// `fork_detached` host replica per `(secret, rep)` unit, recorded with
    /// [`Host::record_trace`]. The batched path is pinned bit-identical to
    /// it.
    fn cross_tenant_accuracy_scalar(
        policy: PlacementPolicy,
        app: &dyn SecretApp,
        defense: Option<&DefenseDeployment>,
        cfg: &CrossTenantConfig,
    ) -> Result<PolicyAttackCell, AegisError> {
        let mut span = obs::span("fleet.cross_tenant");
        let s = xt_setup(policy, app, cfg)?;
        span.set_sim_ns(s.window * s.units.len() as u64);
        let tenants = cfg.tenants;
        let (anchor, sibling, events, window, n_secrets) =
            (s.anchor, s.sibling, s.events, s.window, s.n_secrets);
        let vms = &s.vms;
        let snapshot: &Host = &s.host;
        type FeatureRow = Result<(Vec<f64>, usize, usize), aegis_perf::PerfError>;
        let rows: Vec<FeatureRow> = Executor::from_config().map_with(
            s.units.clone(),
            |_worker| (Trace::new(Vec::new(), 1), Vec::new()),
            |(agg, feats), unit, (secret, rep)| {
                let mut replica = snapshot.fork_detached();
                // The victim runs the labeled secret and every bystander
                // an independently drawn decoy. The attacker (tenant 0)
                // parks its own vCPU — it controls its workload, and
                // idling maximises the foreign signal in its aggregate.
                for (j, &vm) in vms.iter().enumerate() {
                    if j == 0 {
                        continue;
                    }
                    let plan = if j == 1 {
                        let mut rng = StdRng::seed_from_u64(derive_seed(
                            cfg.seed,
                            STREAM_XT_VICTIM,
                            unit as u64,
                        ));
                        app.sample_plan(secret, &mut rng)
                    } else {
                        let mut rng = StdRng::seed_from_u64(derive_seed(
                            cfg.seed,
                            STREAM_XT_DECOY,
                            (unit * tenants + j) as u64,
                        ));
                        let decoy = rng.gen_range(0..n_secrets);
                        app.sample_plan(decoy, &mut rng)
                    };
                    replica
                        .attach_app(vm, 0, Box::new(PlanSource::new(plan)))
                        .expect("ids were validated on the original host");
                }
                if let Some(d) = defense {
                    for (j, &vm) in vms.iter().enumerate() {
                        d.deploy(
                            &mut replica,
                            vm,
                            0,
                            derive_seed(cfg.seed, STREAM_XT_NOISE, (unit * tenants + j) as u64),
                        )
                        .expect("ids were validated on the original host");
                    }
                }
                let traces = replica.record_trace(
                    &[anchor, sibling],
                    &events,
                    OriginFilter::Any,
                    cfg.interval_ns,
                    window,
                )?;
                sum_traces_into(&traces, agg);
                trace_features_into(agg, cfg.pool, feats);
                Ok((feats.clone(), secret, rep))
            },
        );
        let mut train = Dataset::new(Vec::new(), Vec::new(), s.n_secrets);
        let mut test = Dataset::new(Vec::new(), Vec::new(), s.n_secrets);
        for row in rows {
            let (features, secret, rep) = row.map_err(AegisError::from)?;
            if rep % 2 == 0 {
                train.push(features, secret);
            } else {
                test.push(features, secret);
            }
        }
        Ok(score_cell(policy, s.co_resident, cfg, &train, &test))
    }

    fn sum_traces(traces: &[Trace]) -> Trace {
        let mut agg = Trace::new(Vec::new(), 1);
        sum_traces_into(traces, &mut agg);
        agg
    }

    #[test]
    fn config_guards() {
        let app = aegis_workloads::KeystrokeApp::with_window(300_000_000);
        let bad = CrossTenantConfig {
            tenants: 1,
            ..CrossTenantConfig::default()
        };
        assert!(cross_tenant_accuracy(PlacementPolicy::Packed, &app, None, &bad).is_err());
        assert!(cross_tenant_accuracy_scalar(PlacementPolicy::Packed, &app, None, &bad).is_err());
        let bad = CrossTenantConfig {
            traces_per_secret: 1,
            ..CrossTenantConfig::default()
        };
        assert!(cross_tenant_accuracy(PlacementPolicy::Packed, &app, None, &bad).is_err());
        assert!(cross_tenant_accuracy_scalar(PlacementPolicy::Packed, &app, None, &bad).is_err());
    }

    #[test]
    fn trace_summing_is_elementwise_and_reuses_scratch() {
        use aegis_microarch::EventId;
        let mut a = Trace::new(vec![EventId(0)], 1);
        a.push_slice(&[1.0]);
        a.push_slice(&[2.0]);
        let mut b = Trace::new(vec![EventId(0)], 1);
        b.push_slice(&[10.0]);
        b.push_slice(&[20.0]);
        let s = sum_traces(&[a.clone(), b.clone()]);
        assert_eq!(s.row(0), &[11.0, 22.0]);
        // A dirty aggregate from a previous unit is fully overwritten.
        let mut agg = Trace::new(vec![EventId(3), EventId(4)], 9);
        agg.push_slice(&[7.0, 7.0]);
        sum_traces_into(&[a, b], &mut agg);
        assert_eq!(agg.events, vec![EventId(0)]);
        assert_eq!(agg.interval_ns, 1);
        assert_eq!(agg.row(0), &[11.0, 22.0]);
    }

    fn quick_cfg() -> CrossTenantConfig {
        CrossTenantConfig {
            tenants: 3,
            traces_per_secret: 2,
            window_ns: 6_000_000,
            interval_ns: 1_000_000,
            pool: 2,
            seed: 11,
            arch: MicroArch::AmdEpyc7252,
        }
    }

    fn test_deployment(arch: MicroArch) -> DefenseDeployment {
        use crate::pipeline::MechanismChoice;
        use aegis_fuzzer::Gadget;
        use aegis_isa::{IsaCatalog, Vendor, WellKnown};
        use aegis_obfuscator::{GadgetStack, ObfuscatorConfig};
        let isa = IsaCatalog::synthetic(Vendor::Amd, 7);
        let mut core = aegis_microarch::Core::new(arch, 9);
        let stack = GadgetStack::calibrate(
            &isa,
            &mut core,
            vec![Gadget::new(WellKnown::Clflush.id(), WellKnown::Load64.id())],
            64,
        );
        DefenseDeployment {
            stack,
            mechanism: MechanismChoice::Laplace { epsilon: 0.25 },
            obfuscator: ObfuscatorConfig::default(),
        }
    }

    #[test]
    fn batched_lanes_bit_match_the_scalar_reference() {
        let app = aegis_workloads::KeystrokeApp::with_window(300_000_000);
        let cfg = quick_cfg();
        for policy in [PlacementPolicy::Packed, PlacementPolicy::CorePairExclusive] {
            let batched = cross_tenant_accuracy(policy, &app, None, &cfg).unwrap();
            let scalar = cross_tenant_accuracy_scalar(policy, &app, None, &cfg).unwrap();
            assert_eq!(batched, scalar, "{policy:?}");
        }
    }

    #[test]
    fn batched_lanes_bit_match_the_scalar_reference_under_defense() {
        let app = aegis_workloads::KeystrokeApp::with_window(300_000_000);
        let cfg = quick_cfg();
        let defense = test_deployment(cfg.arch);
        let batched =
            cross_tenant_accuracy(PlacementPolicy::Packed, &app, Some(&defense), &cfg).unwrap();
        let scalar =
            cross_tenant_accuracy_scalar(PlacementPolicy::Packed, &app, Some(&defense), &cfg)
                .unwrap();
        assert_eq!(batched, scalar);
    }
}
