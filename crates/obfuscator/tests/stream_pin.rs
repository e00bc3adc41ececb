//! Pins the obfuscator's injection stream bit for bit.
//!
//! For every mechanism family under an inert and the smoke fault plan,
//! a digest folds the per-tick `demand()` vector and `protection_status()`
//! plus the final `injected_counts()` over several seeds. Any change to
//! the sample feed, the noise draws, the lane schedule or the stale-feed
//! fallback moves a digest.

use aegis_dp::{DStarMechanism, LaplaceMechanism, NoiseMechanism};
use aegis_faults::FaultPlan;
use aegis_fuzzer::Gadget;
use aegis_isa::{IsaCatalog, Vendor, WellKnown};
use aegis_microarch::{ActivityVector, Core, Feature, InterferenceConfig, MicroArch};
use aegis_obfuscator::{
    ConstantOutput, GadgetStack, Obfuscator, ObfuscatorConfig, UniformRandomNoise,
};
use aegis_sev::{ActivitySource, ProtectionStatus};

const TICKS: usize = 4000;
const SEEDS: u64 = 4;

/// `(mechanism, plan, digest)`.
const PINS: &[(&str, &str, u64)] = &[
    ("laplace", "none", 0x5095_c8e2_198f_ccb4),
    ("laplace", "smoke", 0x23c1_6f8d_262a_5749),
    ("dstar", "none", 0x7eab_4caa_5a8b_5cc5),
    // Pinned once the daemon indexed d*'s series by consumed samples;
    // before that the first dropped sample panicked the mechanism.
    ("dstar", "smoke", 0x24f0_e3fa_8523_6352),
    ("uniform", "none", 0x527a_b6c3_3b98_b7c1),
    ("uniform", "smoke", 0xd93c_a908_e7c6_0e97),
    ("constant", "none", 0xde9f_558f_6641_dffd),
    ("constant", "smoke", 0xd5fd_168a_d5c1_d0b4),
];

fn stack() -> GadgetStack {
    let catalog = IsaCatalog::synthetic(Vendor::Amd, 7);
    let mut core = Core::new(MicroArch::AmdEpyc7252, 7);
    core.set_interference(InterferenceConfig::isolated());
    GadgetStack::calibrate(
        &catalog,
        &mut core,
        vec![
            Gadget::new(WellKnown::Clflush.id(), WellKnown::Load64.id()),
            Gadget::new(WellKnown::Load64.id(), WellKnown::Store64.id()),
        ],
        100,
    )
}

fn mechanism(name: &str, seed: u64) -> Box<dyn NoiseMechanism> {
    match name {
        "laplace" => Box::new(LaplaceMechanism::new(1.0, seed)),
        "dstar" => Box::new(DStarMechanism::new(8.0, seed)),
        "uniform" => Box::new(UniformRandomNoise::new(2.0, seed)),
        "constant" => Box::new(ConstantOutput::new(6.0)),
        other => panic!("unknown mechanism {other}"),
    }
}

fn plan(name: &str) -> FaultPlan {
    match name {
        "none" => FaultPlan::none(),
        "smoke" => FaultPlan::smoke(),
        other => panic!("unknown plan {other}"),
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(stack: &GadgetStack, mech: &str, plan_name: &str) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for seed in 0..SEEDS {
        let mut obf = Obfuscator::with_faults(
            stack.clone(),
            mechanism(mech, seed),
            ObfuscatorConfig::default(),
            seed,
            plan(plan_name),
        );
        for tick in 0..TICKS {
            // A stepped application rate, so d* sees a moving series.
            let uops = 150.0 + 40.0 * ((tick / 7) % 11) as f64;
            let app = ActivityVector::from_pairs(&[(Feature::UopsRetired, uops)]);
            obf.observe_coscheduled(&app, 100_000);
            let demand = obf.demand().expect("the injector always demands");
            for f in Feature::ALL {
                h.word(demand[f].to_bits());
            }
            h.word(match obf.protection_status() {
                ProtectionStatus::Healthy => 0,
                ProtectionStatus::Degraded => 1,
            });
        }
        h.word(obf.injected_counts().to_bits());
    }
    h.0
}

#[test]
fn obfuscator_streams_match_pinned_digests() {
    let stack = stack();
    let mut mismatches = Vec::new();
    for &(mech, plan_name, pinned) in PINS {
        let got = digest(&stack, mech, plan_name);
        if got != pinned {
            mismatches.push(format!(
                "{mech} × {plan_name}: got {got:#018x}, pinned {pinned:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "stream digests moved:\n{}",
        mismatches.join("\n")
    );
}
