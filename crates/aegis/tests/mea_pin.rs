//! Pins model-extraction collection bit for bit.
//!
//! For no defense, Laplace at ε = 1 and d* at ε = 8, each under an inert
//! and the smoke fault plan, a digest folds every run `Collector::mea_runs`
//! returns, in unit order: the model index, every slice feature, the
//! slice labels and the truth sequence — or the error variant when a
//! counter fails to program. The digests were captured when every MEA
//! unit still replayed against its own detached fork of the host (attach
//! the padded inference, deploy the obfuscator, record the core), so any
//! collection path must reproduce that reference exactly.
//!
//! Hosts carry explicit fault plans, and the file keeps a second digest
//! column for a run under `AEGIS_FAULTS=smoke`, captured on the same
//! path. The no-defense rows are equal in both columns: recording reads
//! only the host's plan, never the ambient one. The defended rows differ
//! because `DefenseDeployment::make_obfuscator` builds its obfuscator
//! under the ambient plan (its netlink feed drops samples), exactly as
//! `DefenseDeployment::deploy` does.

use aegis::faults::FaultPlan;
use aegis::fuzzer::Gadget;
use aegis::isa::{IsaCatalog, Vendor, WellKnown};
use aegis::microarch::{Core, MicroArch};
use aegis::obfuscator::{GadgetStack, ObfuscatorConfig};
use aegis::sev::{Host, PlanSource, SevMode, VmId};
use aegis::workloads::{DnnZoo, MixSpec, Segment, WorkloadPlan};
use aegis::{AegisError, Collector, DefenseDeployment, MeaConfig, MeaRun, MechanismChoice};

/// `(defense, host plan, digest, digest under AEGIS_FAULTS=smoke)`.
const PINS: &[(&str, &str, u64, u64)] = &[
    ("none", "none", 0xafe8053d542fbcf2, 0xafe8053d542fbcf2),
    ("none", "smoke", 0xaea31d5e97e1cb0e, 0xaea31d5e97e1cb0e),
    ("laplace-1", "none", 0xe505303ce568455c, 0x9df86b4cec4bef32),
    ("laplace-1", "smoke", 0x154761b9d3397c01, 0x7162a2b3c393396d),
    ("dstar-8", "none", 0xfc6d27a7c77a6a12, 0x7ad192d5cced46e4),
    ("dstar-8", "smoke", 0x79f75a30589acd7a, 0xfdb6628445da853b),
];

fn plan(name: &str) -> FaultPlan {
    match name {
        "none" => FaultPlan::none(),
        "smoke" => FaultPlan::smoke(),
        other => panic!("unknown plan {other}"),
    }
}

fn steady(uops_per_us: f64) -> WorkloadPlan {
    let mut spec = MixSpec::idle();
    spec.uops_per_us = uops_per_us;
    let mut plan = WorkloadPlan::new();
    plan.push(Segment::new(1 << 40, spec.build()));
    plan
}

/// A three-core host: the victim on core 1, still carrying an injector
/// from an earlier deployment, and a busy bystander tenant on core 2,
/// warmed a few ticks so every stream is mid-flight.
fn host(plan: FaultPlan) -> (Host, VmId) {
    let mut host = Host::with_faults(MicroArch::AmdEpyc7252, 3, 29, plan);
    let victim = host.launch_vm_pinned(&[1], SevMode::SevSnp).unwrap();
    let bystander = host.launch_vm_pinned(&[2], SevMode::SevSnp).unwrap();
    host.attach_injector(victim, 0, Box::new(PlanSource::new(steady(60.0))))
        .unwrap();
    host.attach_app(bystander, 0, Box::new(PlanSource::new(steady(700.0))))
        .unwrap();
    for _ in 0..7 {
        host.tick();
    }
    (host, victim)
}

fn deployment(name: &str) -> Option<DefenseDeployment> {
    let mechanism = match name {
        "none" => return None,
        "laplace-1" => MechanismChoice::Laplace { epsilon: 1.0 },
        "dstar-8" => MechanismChoice::DStar { epsilon: 8.0 },
        other => panic!("unknown defense {other}"),
    };
    let isa = IsaCatalog::synthetic(Vendor::Amd, 7);
    let mut core = Core::new(MicroArch::AmdEpyc7252, 9);
    let stack = GadgetStack::calibrate(
        &isa,
        &mut core,
        vec![Gadget::new(WellKnown::Clflush.id(), WellKnown::Load64.id())],
        64,
    );
    Some(DefenseDeployment {
        stack,
        mechanism,
        obfuscator: ObfuscatorConfig::default(),
    })
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

    fn runs(&mut self, got: Result<Vec<(usize, MeaRun)>, AegisError>) {
        match got {
            Ok(runs) => {
                for (model, run) in runs {
                    self.word(model as u64);
                    self.word(run.slices.len() as u64);
                    for slice in &run.slices {
                        self.word(slice.len() as u64);
                        for v in slice {
                            self.word(v.to_bits());
                        }
                    }
                    for &l in &run.slice_labels {
                        self.word(l as u64);
                    }
                    self.word(run.truth.len() as u64);
                    for &t in &run.truth {
                        self.word(t as u64);
                    }
                }
            }
            Err(AegisError::Fault { .. }) => self.word(0xE1),
            Err(e) => panic!("unexpected collection error {e}"),
        }
    }
}

fn digest(defense: &str, plan_name: &str) -> u64 {
    let (host, victim) = host(plan(plan_name));
    let events = host.core(1).catalog().attack_events();
    let cfg = MeaConfig {
        runs_per_model: 1,
        interval_ns: 1_000_000,
        pad_ns: 2_000_000,
        seed: 17,
    };
    let mut fnv = Fnv::new();
    fnv.runs(Collector::for_mea(cfg).mea_runs(
        &host,
        victim,
        0,
        &DnnZoo::new(3),
        &events,
        deployment(defense).as_ref(),
    ));
    fnv.0
}

#[test]
fn mea_collection_matches_pinned_digests() {
    let ambient_smoke = match aegis::faults::plan() {
        p if p == FaultPlan::none() => false,
        p if p == FaultPlan::smoke() => true,
        p => panic!("no digests pinned under the ambient plan {p:?}"),
    };
    let mut mismatches = Vec::new();
    let mut checked = 0;
    for defense in ["none", "laplace-1", "dstar-8"] {
        for plan_name in ["none", "smoke"] {
            let got = digest(defense, plan_name);
            let pinned = PINS
                .iter()
                .find(|p| (p.0, p.1) == (defense, plan_name))
                .map(|p| if ambient_smoke { p.3 } else { p.2 });
            if pinned != Some(got) {
                mismatches.push(format!("    ({defense:?}, {plan_name:?}, {got:#018x}),"));
            }
            checked += 1;
        }
    }
    assert!(
        mismatches.is_empty(),
        "MEA collection digests moved:\n{}",
        mismatches.join("\n")
    );
    assert_eq!(checked, PINS.len(), "every combination is pinned");
}
