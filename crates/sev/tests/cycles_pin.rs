//! Pins every core's cycle count through scripted host runs.
//!
//! A core with no programmed counter and no activity log is observable
//! only through its cycle count, so this is the one output a shortcut
//! for such cores could move. For every processor model under an inert
//! and the smoke fault plan, each scenario below scripts a host, then a
//! digest folds every core's `cycles()`, a follow-up `record_trace` on
//! every core, and the cycle counts after it:
//!
//! * `idle` — a host with no tenant at all;
//! * `tenants` — two tenants, each running an app plus an injector,
//!   beside idle cores;
//! * `record-mid-run` — `record_trace` programs a tenant core and an idle
//!   core mid-run, and the host runs on after the recorder releases them;
//! * `fail-closed` — a tenant core and an idle core latched fail-closed;
//! * `run-until-done` — `Host::run_until_app_done` on a finite app.

use aegis_faults::FaultPlan;
use aegis_microarch::{EventId, MicroArch, OriginFilter};
use aegis_perf::{PerfError, Trace};
use aegis_sev::{Host, PlanSource, SevMode, VmId};
use aegis_workloads::{MixSpec, Segment, WorkloadPlan};

const N_CORES: usize = 6;
const TICKS: usize = 400;
const INTERVAL_NS: u64 = 1_000_000;
const RECORD_NS: u64 = 3_000_000;

const SCENARIOS: [&str; 5] = [
    "idle",
    "tenants",
    "record-mid-run",
    "fail-closed",
    "run-until-done",
];

/// `(arch index, plan, scenario, digest)`.
const PINS: &[(usize, &str, &str, u64)] = &[
    (0, "none", "idle", 0x12ea7e22404ac8c1),
    (0, "none", "tenants", 0x03d0266f0ccca620),
    (0, "none", "record-mid-run", 0xaba19c94bbc27d01),
    (0, "none", "fail-closed", 0x8915868a6421706c),
    (0, "none", "run-until-done", 0xf8f37564bcdb9af4),
    (0, "smoke", "idle", 0x12ea7e22404ac8c1),
    (0, "smoke", "tenants", 0x7cb8dd29fc30346c),
    (0, "smoke", "record-mid-run", 0xe408edd1e252190e),
    (0, "smoke", "fail-closed", 0xba1f77443bbd814c),
    (0, "smoke", "run-until-done", 0x2545de7076946d4f),
    (1, "none", "idle", 0x12ea7e22404ac8c1),
    (1, "none", "tenants", 0x03d0266f0ccca620),
    (1, "none", "record-mid-run", 0xaba19c94bbc27d01),
    (1, "none", "fail-closed", 0x8915868a6421706c),
    (1, "none", "run-until-done", 0xf8f37564bcdb9af4),
    (1, "smoke", "idle", 0x12ea7e22404ac8c1),
    (1, "smoke", "tenants", 0x7cb8dd29fc30346c),
    (1, "smoke", "record-mid-run", 0xe408edd1e252190e),
    (1, "smoke", "fail-closed", 0xba1f77443bbd814c),
    (1, "smoke", "run-until-done", 0x2545de7076946d4f),
    (2, "none", "idle", 0x45bc46b820b5e39d),
    (2, "none", "tenants", 0x3dfb9d0ce1b9d82b),
    (2, "none", "record-mid-run", 0x5c088748ac91a18e),
    (2, "none", "fail-closed", 0x14f5fd77fa0159d4),
    (2, "none", "run-until-done", 0x8e2d6a37051cf0da),
    (2, "smoke", "idle", 0x45bc46b820b5e39d),
    (2, "smoke", "tenants", 0xcec1eebf29e65b98),
    (2, "smoke", "record-mid-run", 0xf2ff2eed7c5a9820),
    (2, "smoke", "fail-closed", 0xdc7a7c50d70e41dc),
    (2, "smoke", "run-until-done", 0xd341b93c31c58296),
    (3, "none", "idle", 0x45bc46b820b5e39d),
    (3, "none", "tenants", 0x3dfb9d0ce1b9d82b),
    (3, "none", "record-mid-run", 0x5c088748ac91a18e),
    (3, "none", "fail-closed", 0x14f5fd77fa0159d4),
    (3, "none", "run-until-done", 0x8e2d6a37051cf0da),
    (3, "smoke", "idle", 0x45bc46b820b5e39d),
    (3, "smoke", "tenants", 0xcec1eebf29e65b98),
    (3, "smoke", "record-mid-run", 0xf2ff2eed7c5a9820),
    (3, "smoke", "fail-closed", 0xdc7a7c50d70e41dc),
    (3, "smoke", "run-until-done", 0xd341b93c31c58296),
];

fn plan(name: &str) -> FaultPlan {
    match name {
        "none" => FaultPlan::none(),
        "smoke" => FaultPlan::smoke(),
        other => panic!("unknown plan {other}"),
    }
}

/// A workload whose rate steps every 0.5 ms, for `steps` steps.
fn stepped_plan(base: f64, steps: u32) -> WorkloadPlan {
    let mut p = WorkloadPlan::new();
    for step in 0..steps {
        let mut spec = MixSpec::idle();
        spec.uops_per_us = base + 35.0 * f64::from(step % 9);
        spec.load_frac = 0.2 + 0.02 * f64::from(step % 5);
        spec.l1_miss_rate = 0.05 + 0.01 * f64::from(step % 7);
        p.push(Segment::new(500_000, spec.build()));
    }
    p
}

/// A steady injector rate that never finishes.
fn injector_plan(uops_per_us: f64) -> WorkloadPlan {
    let mut spec = MixSpec::idle();
    spec.uops_per_us = uops_per_us;
    let mut p = WorkloadPlan::new();
    p.push(Segment::new(u64::MAX / 2, spec.build()));
    p
}

/// A six-core host with tenants on cores 1 and 4 (app plus injector) and
/// cores 0, 2, 3 and 5 idle.
fn tenant_host(arch: MicroArch, plan: FaultPlan, app_steps: u32) -> (Host, VmId) {
    let mut host = Host::with_faults(arch, N_CORES, 31, plan);
    let victim = host.launch_vm_pinned(&[1], SevMode::SevSnp).unwrap();
    let other = host.launch_vm_pinned(&[4], SevMode::SevEs).unwrap();
    for (vm, base, inj) in [(victim, 180.0, 60.0), (other, 420.0, 25.0)] {
        host.attach_app(
            vm,
            0,
            Box::new(PlanSource::new(stepped_plan(base, app_steps))),
        )
        .unwrap();
        host.attach_injector(vm, 0, Box::new(PlanSource::new(injector_plan(inj))))
            .unwrap();
    }
    (host, victim)
}

/// The catalog's first `n` attack events.
fn events(host: &Host, n: usize) -> Vec<EventId> {
    host.core(0)
        .catalog()
        .attack_events()
        .iter()
        .copied()
        .take(n)
        .collect()
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn cycles(&mut self, host: &Host) {
        for c in 0..host.n_cores() {
            self.word(host.core(c).cycles());
        }
    }

    fn traces(&mut self, got: Result<Vec<Trace>, PerfError>) {
        match got {
            Ok(traces) => {
                for t in traces {
                    self.word(t.len() as u64);
                    for row in &t.data {
                        for v in row {
                            self.word(v.to_bits());
                        }
                    }
                }
            }
            Err(PerfError::ProgramFailed { slot, attempts }) => {
                self.word(0xE1);
                self.word(slot as u64);
                self.word(u64::from(attempts));
            }
            Err(e) => panic!("unexpected open error {e}"),
        }
    }
}

fn run(host: &mut Host, ticks: usize) {
    for _ in 0..ticks {
        host.tick();
    }
}

fn digest(arch_ix: usize, plan_name: &str, scenario: &str) -> u64 {
    let arch = MicroArch::ALL[arch_ix];
    let plan = plan(plan_name);
    let mut fnv = Fnv::new();
    let mut host = match scenario {
        "idle" => {
            let mut host = Host::with_faults(arch, N_CORES, 31, plan);
            run(&mut host, TICKS);
            host
        }
        "tenants" => {
            let (mut host, _) = tenant_host(arch, plan, 80);
            run(&mut host, TICKS);
            host
        }
        "record-mid-run" => {
            let (mut host, _) = tenant_host(arch, plan, 80);
            run(&mut host, TICKS / 2);
            fnv.cycles(&host);
            let ids = events(&host, 4);
            fnv.traces(host.record_trace(&[1, 2], &ids, OriginFilter::Any, INTERVAL_NS, RECORD_NS));
            fnv.cycles(&host);
            run(&mut host, TICKS / 2);
            host
        }
        "fail-closed" => {
            let (mut host, _) = tenant_host(arch, plan, 80);
            run(&mut host, TICKS / 4);
            host.set_core_fail_closed(1, true);
            host.set_core_fail_closed(3, true);
            run(&mut host, TICKS);
            for c in 0..host.n_cores() {
                fnv.word(u64::from(host.core_fail_closed(c)));
            }
            host
        }
        "run-until-done" => {
            let (mut host, victim) = tenant_host(arch, plan, 6);
            let took = host.run_until_app_done(victim, 0, 50_000_000).unwrap();
            fnv.word(took.unwrap_or(u64::MAX));
            fnv.word(host.clock_ns());
            host
        }
        other => panic!("unknown scenario {other}"),
    };
    fnv.cycles(&host);
    let all: Vec<usize> = (0..host.n_cores()).collect();
    let ids = events(&host, 2);
    fnv.traces(host.record_trace(&all, &ids, OriginFilter::Any, INTERVAL_NS, RECORD_NS));
    fnv.cycles(&host);
    fnv.0
}

#[test]
fn core_cycles_match_pinned_digests() {
    let mut mismatches = Vec::new();
    let mut checked = 0;
    for arch_ix in 0..MicroArch::ALL.len() {
        for plan_name in ["none", "smoke"] {
            for scenario in SCENARIOS {
                let got = digest(arch_ix, plan_name, scenario);
                let pinned = PINS
                    .iter()
                    .find(|p| (p.0, p.1, p.2) == (arch_ix, plan_name, scenario))
                    .map(|p| p.3);
                if pinned != Some(got) {
                    mismatches.push(format!(
                        "    ({arch_ix}, {plan_name:?}, {scenario:?}, {got:#018x}),"
                    ));
                }
                checked += 1;
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "cycle digests moved:\n{}",
        mismatches.join("\n")
    );
    assert_eq!(checked, PINS.len(), "every combination is pinned");
}
