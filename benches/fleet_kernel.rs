//! The fleet plane's hot paths and headline defense metrics.
//!
//! * `fleet_kernel/place-64-*` — the placement scheduler mapping 64
//!   tenants onto an 8-host fleet under each policy; the derived
//!   `tenants-per-sec-*` rows are the throughput numbers.
//! * `fleet_kernel/xt-record-64-*` and the derived
//!   `fleet_kernel/xt-traces-per-sec-*` family — the cross-tenant
//!   measurement plane: 64 co-resident victim replicas recorded on a
//!   packed shard's anchor pair, one detached host fork per replica
//!   (the scalar reference) versus contiguous lane groups through the
//!   shard host's batched recorder at several widths. Traces are
//!   asserted bit-equal at every lane width before timing, so the rows
//!   compare pure execution cost; the acceptance bar is batched ≥ 4x
//!   the scalar per-fork path.
//! * `fleet_kernel/evacuation-hosts-per-sec` — measured wall-clock from
//!   host crash to every evacuated tenant's destination latch releasing
//!   (the daemon demonstrated health on the new host), reported as a
//!   hosts-evacuated-per-second rate. The deterministic simulated span
//!   rides along as a row field and is asserted identical across runs.
//! * `fleet_kernel/storm-step-*` — one quiet 10 ms storm step of the
//!   `fleet-storm` benchmark's fleet (32 tenants on 8 hosts × 5 SMT
//!   pairs) under each placement policy: median wall ns per step and
//!   steps per second with the live hosts stepped on 2 workers (and on
//!   1, the `-workers-1` ids), plus the 2-worker step's
//!   `speedup_vs_1_worker`. These steps are the benchmark's
//!   `fleet.quiet_step_pct` share.
//! * `fleet_kernel/attack-accuracy-*` — the cross-tenant attacker per
//!   placement policy (now acquired through the batched lane path). The
//!   acceptance bar: `packed` (co-resident victim) classifies well
//!   above chance while the isolating policies (`smt-off`,
//!   `core-pair-exclusive`, and `spread` with headroom) stay at chance
//!   — placement alone measurably moves the attacker.

mod common;

use aegis::fuzzer::FuzzerConfig;
use aegis::microarch::{EventId, MicroArch, OriginFilter};
use aegis::par::{derive_seed, set_threads};
use aegis::perf::Trace;
use aegis::profiler::{RankConfig, WarmupConfig};
use aegis::sev::{Host, LaneGuest, PlanSource, SevMode, VmId};
use aegis::workloads::{KeystrokeApp, SecretApp, WorkloadPlan};
use aegis::{
    policy_attack_table, AegisConfig, AegisPipeline, CrossTenantConfig, DefensePlan, FaultPlan,
    FleetConfig, FleetSupervisor, FleetTopology, MechanismChoice, PlacementPolicy, Scheduler,
    ServiceConfig,
};
use common::BenchFile;
use criterion::{black_box, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PLACE_TENANTS: usize = 64;
/// Victim replicas in the cross-tenant recording sweep (divisible by
/// every width in [`XT_WIDTHS`]).
const XT_LANES: usize = 64;
/// Tenants in the recording fixture: a `Packed` host filled to capacity
/// (16 cores), the density that policy exists to provide — every tenant
/// beyond the attacker/victim pair is a co-resident bystander the
/// scalar fork path must replay tick-by-tick and the batched path
/// elides.
const XT_TENANTS: usize = 16;
/// Lane-group widths the batched recorder is swept across.
const XT_WIDTHS: [usize; 4] = [1, 8, 32, 64];
/// Sampling interval of the sweep's traces.
const XT_INTERVAL_NS: u64 = 1_000_000;
/// Recording window of the sweep's traces. Long enough that tick work
/// dominates per-replica setup, as in the real attack cells.
const XT_WINDOW_NS: u64 = 60_000_000;
/// Seed stream for the per-lane victim plans (bench-local).
const XT_STREAM: u64 = 0x6c;
/// Seed stream for the per-lane bystander plans (bench-local).
const XT_STREAM_DECOY: u64 = 0x6d;
/// Evacuations sampled for the hosts-per-second row.
const EVAC_RUNS: usize = 5;
/// The `fleet-storm` benchmark's fleet: 8 hosts × 5 SMT pairs, 32
/// tenants, 10 ms storm steps.
const STORM_TOPOLOGY: FleetTopology = FleetTopology {
    hosts: 8,
    sockets_per_host: 1,
    pairs_per_socket: 5,
};
const STORM_TENANTS: usize = 32;
const STORM_STEP_NS: u64 = 10_000_000;
/// Untimed steps before sampling, then timed steps per policy.
const STORM_WARMUP_STEPS: usize = 10;
const STORM_STEPS: usize = 150;
/// Worker counts the storm steps are timed at.
const STORM_WORKERS: [usize; 2] = [1, 2];

fn bench_topology() -> FleetTopology {
    FleetTopology {
        hosts: 8,
        sockets_per_host: 2,
        pairs_per_socket: 4,
    }
}

fn quick_cfg() -> AegisConfig {
    AegisConfig {
        warmup: WarmupConfig {
            probe_ns: 2_000_000,
            passes: 2,
            ..WarmupConfig::default()
        },
        rank: RankConfig {
            reps_per_secret: 2,
            window_ns: 50_000_000,
            ..RankConfig::default()
        },
        fuzzer: FuzzerConfig {
            candidates_per_event: 60,
            confirm_reps: 8,
            ..FuzzerConfig::default()
        },
        fuzz_top_events: 4,
        isa_seed: 7,
        mechanism: MechanismChoice::Laplace { epsilon: 1.0 },
        faults: Some(FaultPlan::none()),
        ..AegisConfig::default()
    }
}

fn offline_plan(app: &KeystrokeApp) -> DefensePlan {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 7);
    let vm = host
        .launch_vm(1, SevMode::SevSnp)
        .expect("bench host holds one VM");
    AegisPipeline::offline(&mut host, vm, 0, app, &quick_cfg()).expect("offline profiling succeeds")
}

/// Crashes host 0 and drives the fleet until every evacuee's
/// destination latch has released (its daemon demonstrated health on
/// the new host). Returns `(wall_ns, sim_ns)` for the crash→release
/// span; the fleet deploy and pre-crash run are untimed. The wall
/// component is what the hosts-per-second row reports; the sim
/// component stays a pure function of configuration and seed, asserted
/// identical across runs.
fn evacuate_host(plan: &DefensePlan, app: &KeystrokeApp) -> (u64, u64) {
    let topo = FleetTopology {
        hosts: 4,
        sockets_per_host: 1,
        pairs_per_socket: 3,
    };
    let cfg = FleetConfig::new(
        ServiceConfig::new(quick_cfg()),
        topo,
        PlacementPolicy::Spread,
        8,
    )
    .seed(11);
    let mut fleet = FleetSupervisor::deploy(cfg, plan, app).expect("fleet deploys");
    fleet.run(4_000_000);
    let evacuees: Vec<usize> = (0..fleet.n_tenants())
        .filter(|&t| matches!(fleet.tenant_home(t), Some((0, _))))
        .collect();
    assert!(!evacuees.is_empty(), "spread places tenants on host 0");
    let started = std::time::Instant::now();
    fleet.inject_host_crash(0);
    let crash_ns = fleet.clock_ns();
    let all_released = |fleet: &FleetSupervisor| {
        evacuees.iter().all(|&t| match fleet.tenant_home(t) {
            Some((h, c)) => h != 0 && !fleet.host(h).core_fail_closed(c),
            None => false,
        })
    };
    let budget_ns = 100_000_000;
    while !all_released(&fleet) {
        assert!(
            fleet.clock_ns() - crash_ns < budget_ns,
            "evacuees must demonstrate health within {budget_ns} sim-ns"
        );
        fleet.run(1_000_000);
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    (wall_ns.max(1), fleet.clock_ns() - crash_ns)
}

/// A `Packed` shard filled to capacity, its anchor pair holding the
/// attacker (tenant 0, parked) and the co-resident victim (the tenant
/// scheduled on the anchor's SMT sibling), plus the pre-sampled
/// per-lane victim and bystander plans: the fixture for the
/// cross-tenant recording sweep. Both recording paths replay the same
/// victim plans against the same live shard snapshot; only the scalar
/// path needs the bystander plans, because only it simulates the
/// bystander cores at all.
struct XtFixture {
    fleet: FleetSupervisor,
    /// `[attacker anchor, victim sibling]`.
    cores: [usize; 2],
    /// The victim tenant's vCPU on the sibling core.
    victim: (VmId, usize),
    /// Every other co-resident tenant's vCPU (bystanders off the pair).
    decoys: Vec<(VmId, usize)>,
    events: [EventId; 4],
    /// One victim plan per lane, shared by both paths.
    victim_plans: Vec<WorkloadPlan>,
    /// Per lane, one plan per bystander — replayed by the scalar path
    /// only, exactly as the fleet crate's test-only per-fork oracle
    /// re-attaches them per fork.
    decoy_plans: Vec<Vec<WorkloadPlan>>,
}

fn xt_fixture(plan: &DefensePlan, app: &KeystrokeApp, lanes: usize) -> XtFixture {
    // One production-shaped shard (16 cores, as in `bench_topology`)
    // packed to capacity. The scalar path clones the whole host per
    // fork and ticks all 16 cores — bystander apps included — while
    // the batched recorder simulates the recorded pair alone. That
    // elision is bit-exact (unrecorded cores never couple back into
    // the recorded pair), and the equality sweep below re-proves it on
    // every run.
    let topo = FleetTopology {
        hosts: 2,
        sockets_per_host: 2,
        pairs_per_socket: 4,
    };
    let cfg = FleetConfig::new(
        ServiceConfig::new(quick_cfg()),
        topo,
        PlacementPolicy::Packed,
        XT_TENANTS,
    )
    .seed(9);
    let mut fleet = FleetSupervisor::deploy(cfg, plan, app).expect("fleet deploys");
    fleet.run(2_000_000);
    let (h, anchor) = fleet.tenant_home(0).expect("tenant 0 is placed");
    assert_eq!(h, 0, "packed placement fills host 0 first");
    let sibling = FleetTopology::sibling_of(anchor);
    let victim = fleet
        .host(0)
        .assignment_of(sibling)
        .expect("packed co-schedules a victim on the attacker's sibling");
    let decoys: Vec<(VmId, usize)> = (0..XT_TENANTS)
        .filter_map(|t| match fleet.tenant_home(t) {
            Some((0, c)) if c != anchor && c != sibling => fleet.host(0).assignment_of(c),
            _ => None,
        })
        .collect();
    assert!(!decoys.is_empty(), "a packed host holds bystanders");
    let events = fleet.host(0).core(anchor).catalog().attack_events();
    let victim_plans = (0..lanes)
        .map(|l| {
            let mut rng = StdRng::seed_from_u64(derive_seed(7, XT_STREAM, l as u64));
            let secret = rng.gen_range(0..app.n_secrets());
            app.sample_plan(secret, &mut rng)
        })
        .collect();
    let decoy_plans = (0..lanes)
        .map(|l| {
            (0..decoys.len())
                .map(|d| {
                    let mut rng = StdRng::seed_from_u64(derive_seed(
                        7,
                        XT_STREAM_DECOY,
                        (l * XT_TENANTS + d) as u64,
                    ));
                    let secret = rng.gen_range(0..app.n_secrets());
                    app.sample_plan(secret, &mut rng)
                })
                .collect()
        })
        .collect();
    XtFixture {
        fleet,
        cores: [anchor, sibling],
        victim,
        decoys,
        events,
        victim_plans,
        decoy_plans,
    }
}

/// The pre-batching acquisition recipe, exactly as the fleet attack
/// table ran before lane batching: one detached host fork per replica,
/// the victim's plan and every bystander's plan re-attached
/// scalar-style (the fork must replay the whole co-resident household
/// because `Host::tick` is whole-host), recorded with
/// `record_trace` on the anchor pair.
fn xt_record_scalar(fx: &XtFixture) -> Vec<Vec<Trace>> {
    fx.victim_plans
        .iter()
        .zip(&fx.decoy_plans)
        .map(|(plan, decoys)| {
            let mut fork = fx.fleet.host(0).fork_detached();
            fork.attach_app(
                fx.victim.0,
                fx.victim.1,
                Box::new(PlanSource::new(plan.clone())),
            )
            .expect("fork holds the victim VM");
            for (&(vm, vcpu), p) in fx.decoys.iter().zip(decoys) {
                fork.attach_app(vm, vcpu, Box::new(PlanSource::new(p.clone())))
                    .expect("fork holds the bystander VM");
            }
            fork.record_trace(
                &fx.cores,
                &fx.events,
                OriginFilter::Any,
                XT_INTERVAL_NS,
                XT_WINDOW_NS,
            )
            .expect("scalar recording succeeds")
        })
        .collect()
}

/// The same replicas as contiguous lane groups of `width` through the
/// shard host's batched recorder — no forks, one shared arena, and no
/// bystander simulation (the elision the equality sweep proves).
fn xt_record_batched(fx: &XtFixture, width: usize) -> Vec<Vec<Trace>> {
    let mut out = Vec::with_capacity(fx.victim_plans.len());
    for chunk in fx.victim_plans.chunks(width) {
        let lanes: Vec<Vec<LaneGuest>> = chunk
            .iter()
            .map(|plan| {
                vec![
                    LaneGuest::default(),
                    LaneGuest {
                        app: Some(Box::new(PlanSource::new(plan.clone()))),
                        injector: None,
                    },
                ]
            })
            .collect();
        out.extend(
            fx.fleet
                .record_host_trace_batch(
                    0,
                    &fx.cores,
                    lanes,
                    &fx.events,
                    OriginFilter::Any,
                    XT_INTERVAL_NS,
                    XT_WINDOW_NS,
                )
                .expect("batched recording succeeds"),
        );
    }
    out
}

/// The scalar-reference invariant, asserted on every run (smoke and
/// sampled alike): every lane width produces traces bit-equal to the
/// per-fork path, so the throughput rows compare execution cost and
/// nothing else.
fn xt_assert_bit_equal(fx: &XtFixture) {
    let reference = xt_record_scalar(fx);
    for width in XT_WIDTHS {
        assert_eq!(
            xt_record_batched(fx, width),
            reference,
            "lane width {width} diverged from the fork path"
        );
    }
}

fn bench_xt_recording(c: &mut Criterion, fx: &XtFixture) {
    let mut g = c.benchmark_group("fleet_kernel");
    g.sample_size(10);
    g.bench_function(&format!("xt-record-{XT_LANES}-scalar"), |b| {
        b.iter(|| black_box(xt_record_scalar(fx).len()));
    });
    for width in XT_WIDTHS {
        g.bench_function(&format!("xt-record-{XT_LANES}-batched-{width}"), |b| {
            b.iter(|| black_box(xt_record_batched(fx, width).len()));
        });
    }
    g.finish();
}

/// Wall ns of each of `steps` quiet storm steps of the benchmark's
/// fleet under `policy`, after `warmup` untimed ones: one fleet per
/// entry of [`STORM_WORKERS`], their steps interleaved so that machine
/// drift falls on every worker count alike.
fn storm_steps(
    plan: &DefensePlan,
    app: &KeystrokeApp,
    policy: PlacementPolicy,
    warmup: usize,
    steps: usize,
) -> [Vec<f64>; STORM_WORKERS.len()] {
    let mut fleets = STORM_WORKERS.map(|workers| {
        let cfg = FleetConfig::new(
            ServiceConfig::new(quick_cfg()),
            STORM_TOPOLOGY,
            policy,
            STORM_TENANTS,
        )
        .seed(1);
        let mut fleet = FleetSupervisor::deploy(cfg, plan, app).expect("fleet deploys");
        set_threads(workers);
        fleet.run_storm(warmup as u64, STORM_STEP_NS);
        fleet
    });
    let mut ns = STORM_WORKERS.map(|_| Vec::with_capacity(steps));
    for _ in 0..steps {
        for ((fleet, workers), out) in fleets.iter_mut().zip(STORM_WORKERS).zip(&mut ns) {
            set_threads(workers);
            let started = std::time::Instant::now();
            fleet.run_storm(1, STORM_STEP_NS);
            out.push(started.elapsed().as_nanos() as f64);
        }
    }
    set_threads(2); // the bench's own worker count, set in `main`
    ns
}

/// The quiet-storm-step rows of every policy: median wall ns and steps
/// per second at each worker count, and the derived
/// `speedup_vs_1_worker` of the 2-worker step. These steps are the
/// benchmark's `fleet.quiet_step_pct` share, measured on their own.
fn storm_rows(
    out: &mut BenchFile,
    plan: &DefensePlan,
    app: &KeystrokeApp,
    warmup: usize,
    steps: usize,
) {
    for policy in PlacementPolicy::ALL {
        let label = policy.label();
        let id = |workers: usize| match workers {
            2 => format!("fleet_kernel/storm-step-{label}"),
            w => format!("fleet_kernel/storm-step-{label}-workers-{w}"),
        };
        let samples = storm_steps(plan, app, policy, warmup, steps);
        for (workers, mut ns) in STORM_WORKERS.into_iter().zip(samples) {
            ns.sort_by(f64::total_cmp);
            let median_ns = ns[ns.len() / 2];
            out.push(
                id(workers),
                "fleet",
                Some("fleet.quiet_step_pct"),
                &[
                    ("median_ns", median_ns, "ns", "lower"),
                    ("steps_per_sec", 1e9 / median_ns, "1/s", "higher"),
                ],
            );
        }
        out.derive(id(2), "speedup_vs_1_worker", "x", &[id(1), id(2)], |m| {
            m[0] / m[1]
        });
    }
}

fn bench_placement(c: &mut Criterion) {
    let topo = bench_topology();
    let alive = vec![true; topo.hosts];
    let mut g = c.benchmark_group("fleet_kernel");
    g.sample_size(10);
    for policy in PlacementPolicy::ALL {
        assert!(
            policy.capacity_per_host(&topo) * topo.hosts >= PLACE_TENANTS,
            "bench topology must hold {PLACE_TENANTS} tenants under {policy}"
        );
        let name = format!("place-{PLACE_TENANTS}-{}", policy.label());
        g.bench_function(&name, |b| {
            b.iter(|| {
                let mut s = Scheduler::new(topo, policy);
                for t in 0..PLACE_TENANTS {
                    black_box(s.place(t, &alive).expect("capacity checked above"));
                }
            });
        });
    }
    g.finish();
}

fn main() {
    set_threads(2);
    let app = KeystrokeApp::with_window(300_000_000);
    let smoke = std::env::var("AEGIS_BENCH_SMOKE").as_deref() == Ok("1");

    if smoke {
        // One tiny pass over every measured path: placement under each
        // policy, storm steps at both worker counts (their rows built
        // and checked, not written), one crash-to-latch-release
        // evacuation, the lane-width bit-equality sweep on a small
        // fixture, and a 2-tenant attack cell — proves the harness runs
        // end to end.
        let topo = bench_topology();
        let alive = vec![true; topo.hosts];
        for policy in PlacementPolicy::ALL {
            let mut s = Scheduler::new(topo, policy);
            for t in 0..8 {
                s.place(t, &alive).expect("8 tenants always fit");
            }
        }
        let plan = offline_plan(&app);
        let mut rows = BenchFile::new("fleet_kernel", "smoke");
        storm_rows(&mut rows, &plan, &app, 1, 2);
        rows.check().expect("smoke storm rows are well formed");
        let (wall_ns, sim_ns) = evacuate_host(&plan, &app);
        assert!(wall_ns > 0 && sim_ns > 0);
        xt_assert_bit_equal(&xt_fixture(&plan, &app, 8));
        let xt = CrossTenantConfig {
            tenants: 2,
            traces_per_secret: 2,
            ..CrossTenantConfig::default()
        };
        let table =
            policy_attack_table(&PlacementPolicy::ALL, &app, None, &xt).expect("cells measure");
        assert_eq!(table.len(), PlacementPolicy::ALL.len());
        set_threads(1);
        eprintln!("[fleet_kernel smoke OK]");
        return;
    }

    let mut criterion = Criterion::default().configure_from_args();
    bench_placement(&mut criterion);

    // The cross-tenant recording sweep: prove bit-equality at every
    // lane width, then time both paths on the same fixture.
    let plan = offline_plan(&app);
    let fx = xt_fixture(&plan, &app, XT_LANES);
    xt_assert_bit_equal(&fx);
    bench_xt_recording(&mut criterion, &fx);

    let mut out = BenchFile::new(
        "fleet_kernel",
        "64 tenants placed on 8 hosts; 64 cross-tenant replicas recorded, fork vs lanes; \
         host evacuation; quiet 10 ms storm steps of 32 tenants on 8 hosts x 5 pairs at 1 and 2 workers; \
         attack accuracy per placement policy",
    );
    let results = criterion.results();
    out.sampled(results, "fleet_kernel/place-", "fleet", None);
    let xt_table = Some("fleet.xt_table_pct");
    out.sampled(results, "fleet_kernel/xt-record-", "fleet", xt_table);

    // Derived placement throughput per policy.
    for policy in PlacementPolicy::ALL {
        let label = policy.label();
        out.derive(
            format!("fleet_kernel/tenants-per-sec-{label}"),
            "tenants_per_sec",
            "1/s",
            &[format!("fleet_kernel/place-{PLACE_TENANTS}-{label}")],
            |m| PLACE_TENANTS as f64 / (m[0] / 1e9),
        );
    }

    // The xt-traces-per-sec family, derived from the recording sweep.
    // Bit-equality at every width was asserted before timing, so these
    // rows compare pure execution cost. The acceptance bar: some lane
    // width beats the scalar per-fork path by ≥ 4x.
    let scalar = format!("fleet_kernel/xt-record-{XT_LANES}-scalar");
    let n_traces = (XT_LANES * 2) as f64;
    let mut batched_speedups = Vec::new();
    for path in std::iter::once("scalar".to_string())
        .chain(XT_WIDTHS.iter().map(|w| format!("batched-{w}")))
    {
        let id = format!("fleet_kernel/xt-traces-per-sec-{path}");
        let recorded = format!("fleet_kernel/xt-record-{XT_LANES}-{path}");
        out.derive(&id, "traces_per_sec", "1/s", &[&recorded], |m| {
            n_traces / (m[0] / 1e9)
        });
        let speedup = out.derive(&id, "speedup_vs_scalar", "x", &[&scalar, &recorded], |m| {
            m[0] / m[1]
        });
        if path != "scalar" {
            batched_speedups.extend(speedup);
        }
    }
    if let Some(best) = batched_speedups.into_iter().reduce(f64::max) {
        assert!(
            best >= 4.0,
            "lane batching must beat the per-fork path ≥ 4x (best {best:.2}x)"
        );
    }

    // Host-evacuation throughput, wall-clock. The simulated span is a
    // pure function of configuration and seed, so it must not move
    // across the sampled runs — assert that, then report the measured
    // hosts-evacuated-per-second rate.
    let (mut walls, sims): (Vec<u64>, Vec<u64>) =
        (0..EVAC_RUNS).map(|_| evacuate_host(&plan, &app)).unzip();
    assert!(
        sims.iter().all(|&s| s == sims[0]) && sims[0] > 0,
        "evacuation sim-time must stay deterministic: {sims:?}"
    );
    walls.sort_unstable();
    let median_wall_ns = walls[EVAC_RUNS / 2] as f64;
    out.push(
        "fleet_kernel/evacuation-hosts-per-sec",
        "fleet",
        Some("fleet.event_step_pct"),
        &[
            ("hosts_per_sec", 1e9 / median_wall_ns, "1/s", "higher"),
            ("median_wall_ns", median_wall_ns, "ns", "lower"),
            ("sim_ns", sims[0] as f64, "ns", "lower"),
        ],
    );

    storm_rows(&mut out, &plan, &app, STORM_WARMUP_STEPS, STORM_STEPS);

    // The headline defense metric: attacker accuracy per placement
    // policy, undefended workload. Enforce the separation here so a
    // placement or measurement regression fails the bench run loudly.
    let xt = CrossTenantConfig {
        window_ns: 300_000_000,
        ..CrossTenantConfig::default()
    };
    let table =
        policy_attack_table(&PlacementPolicy::ALL, &app, None, &xt).expect("attack cells measure");
    let chance = 1.0 / app.n_secrets() as f64;
    for cell in &table {
        let co_resident = f64::from(u8::from(cell.co_resident));
        out.push(
            format!("fleet_kernel/attack-accuracy-{}", cell.policy.label()),
            "fleet",
            None,
            &[
                ("accuracy", cell.accuracy, "fraction", "higher"),
                ("chance", chance, "fraction", "higher"),
                ("co_resident", co_resident, "bool", "higher"),
            ],
        );
        match cell.policy {
            PlacementPolicy::Packed => assert!(
                cell.accuracy >= 3.0 * chance,
                "packed must leak: accuracy {:.3} < 3x chance",
                cell.accuracy
            ),
            _ => assert!(
                cell.accuracy <= 2.0 * chance,
                "{} must isolate: accuracy {:.3} > 2x chance",
                cell.policy.label(),
                cell.accuracy
            ),
        }
    }
    set_threads(1);
    out.write("BENCH_fleet.json");
}
