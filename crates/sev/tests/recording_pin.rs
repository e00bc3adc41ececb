//! Pins the scalar-core recording path bit for bit.
//!
//! For every processor model under an inert and the smoke fault plan,
//! with 1, 4, 6 and 12 monitored events (one group, one full group, two
//! and three multiplexed groups) and both the host-wide and the
//! guest-only filter, a digest folds every sample of
//! `Host::record_trace` on one core and on two cores — or the open error
//! when a counter fails to program. Any
//! change to counter programming, multiplex rotation and scaling, the
//! read faults, slot steals or interval sampling moves a digest.

use aegis_faults::FaultPlan;
use aegis_microarch::{EventId, MicroArch, OriginFilter};
use aegis_perf::{PerfError, Trace};
use aegis_sev::{Host, PlanSource, SevMode, VmId};
use aegis_workloads::{MixSpec, Segment, WorkloadPlan};

const INTERVAL_NS: u64 = 1_000_000;
const DURATION_NS: u64 = 30_000_000;

/// `(arch index, plan, events, guest-only, one core, two cores)`.
const PINS: &[(usize, &str, usize, bool, u64, u64)] = &[
    (0, "none", 1, false, 0x0570c0e2c98661c2, 0x86beedf5c4f70048),
    (0, "none", 1, true, 0xe0bc1dd3f2ac63a4, 0x224c120050bd3245),
    (0, "none", 4, false, 0x0bd9b595c46a7286, 0x773cc426dd88e08b),
    (0, "none", 4, true, 0x9685e20b5607cdd0, 0x8495b6d1d229bb38),
    (0, "none", 6, false, 0x016901379f188a45, 0x6ec2691091767db1),
    (0, "none", 6, true, 0x4e123333532d7de1, 0x473dc696464d10c8),
    (0, "none", 12, false, 0x7f94d9b3b30ba5cc, 0x5eb93a3bc5a651c6),
    (0, "none", 12, true, 0x6811efe9e7df71a5, 0xe1c9b960d1e62988),
    (0, "smoke", 1, false, 0x4ad7b8f32c496ce7, 0xbb737d1b9e21ff24),
    (0, "smoke", 1, true, 0x58a4126d5afd071d, 0x2d8ba2b42711c686),
    (0, "smoke", 4, false, 0xc62b7c29e0cff595, 0x75c6533caf7da597),
    (0, "smoke", 4, true, 0x819fed3dc71f5d3b, 0xd483ad07e13705dc),
    (0, "smoke", 6, false, 0x71bd1f43b6d8a08b, 0xd77bf326a331fc53),
    (0, "smoke", 6, true, 0x39b7b519dafe6213, 0xe3d143ff64e164d1),
    (
        0,
        "smoke",
        12,
        false,
        0xfd6bb5e0abbfbc0a,
        0x58f00459576465d2,
    ),
    (0, "smoke", 12, true, 0xc03582640540983f, 0x46275206cd26673c),
    (1, "none", 1, false, 0x0570c0e2c98661c2, 0x86beedf5c4f70048),
    (1, "none", 1, true, 0xe0bc1dd3f2ac63a4, 0x224c120050bd3245),
    (1, "none", 4, false, 0x0bd9b595c46a7286, 0x773cc426dd88e08b),
    (1, "none", 4, true, 0x9685e20b5607cdd0, 0x8495b6d1d229bb38),
    (1, "none", 6, false, 0x016901379f188a45, 0x6ec2691091767db1),
    (1, "none", 6, true, 0x4e123333532d7de1, 0x473dc696464d10c8),
    (1, "none", 12, false, 0x7f94d9b3b30ba5cc, 0x5eb93a3bc5a651c6),
    (1, "none", 12, true, 0x6811efe9e7df71a5, 0xe1c9b960d1e62988),
    (1, "smoke", 1, false, 0x4ad7b8f32c496ce7, 0xbb737d1b9e21ff24),
    (1, "smoke", 1, true, 0x58a4126d5afd071d, 0x2d8ba2b42711c686),
    (1, "smoke", 4, false, 0xc62b7c29e0cff595, 0x75c6533caf7da597),
    (1, "smoke", 4, true, 0x819fed3dc71f5d3b, 0xd483ad07e13705dc),
    (1, "smoke", 6, false, 0x71bd1f43b6d8a08b, 0xd77bf326a331fc53),
    (1, "smoke", 6, true, 0x39b7b519dafe6213, 0xe3d143ff64e164d1),
    (
        1,
        "smoke",
        12,
        false,
        0xfd6bb5e0abbfbc0a,
        0x58f00459576465d2,
    ),
    (1, "smoke", 12, true, 0xc03582640540983f, 0x46275206cd26673c),
    (2, "none", 1, false, 0x8f41d9bb07038531, 0x80cebe57d13b85aa),
    (2, "none", 1, true, 0x0e05bd82f0ed6e2d, 0x664f36643bade77e),
    (2, "none", 4, false, 0xa0c9e7d2c45b4622, 0x3048942716f194eb),
    (2, "none", 4, true, 0x3cb4ef61c2cc2f21, 0x6062efc26f01901e),
    (2, "none", 6, false, 0x1ad6866efb301e95, 0x911f962a2f0838cb),
    (2, "none", 6, true, 0x406e207f842b55ab, 0xc761b86e0f98c08e),
    (2, "none", 12, false, 0xfe44f919fb38f783, 0xb885d1118fd4c5c0),
    (2, "none", 12, true, 0xb18d755c6ea706df, 0x9cde337769805380),
    (2, "smoke", 1, false, 0x0f82f67e40eed41f, 0x0f6eb31e44a409e2),
    (2, "smoke", 1, true, 0xd7d45129ae030fdf, 0x563c81d365c102e9),
    (2, "smoke", 4, false, 0xf7feb68107a45873, 0xd568f3265fddf733),
    (2, "smoke", 4, true, 0xd1ec1b719a017a10, 0x8a2ae6505eb0fdf7),
    (2, "smoke", 6, false, 0x52b4c257026d1b69, 0x9db10dc839ef7534),
    (2, "smoke", 6, true, 0xd9c2ba2092cfe187, 0x820c6592add31463),
    (
        2,
        "smoke",
        12,
        false,
        0x5eb228f96fd492a7,
        0x2d504667c9e4adad,
    ),
    (2, "smoke", 12, true, 0xc13952ee3d60c783, 0xa56223056b0ecd94),
    (3, "none", 1, false, 0x8f41d9bb07038531, 0x80cebe57d13b85aa),
    (3, "none", 1, true, 0x0e05bd82f0ed6e2d, 0x664f36643bade77e),
    (3, "none", 4, false, 0xa0c9e7d2c45b4622, 0x3048942716f194eb),
    (3, "none", 4, true, 0x3cb4ef61c2cc2f21, 0x6062efc26f01901e),
    (3, "none", 6, false, 0x1ad6866efb301e95, 0x911f962a2f0838cb),
    (3, "none", 6, true, 0x406e207f842b55ab, 0xc761b86e0f98c08e),
    (3, "none", 12, false, 0xfe44f919fb38f783, 0xb885d1118fd4c5c0),
    (3, "none", 12, true, 0xb18d755c6ea706df, 0x9cde337769805380),
    (3, "smoke", 1, false, 0x0f82f67e40eed41f, 0x0f6eb31e44a409e2),
    (3, "smoke", 1, true, 0xd7d45129ae030fdf, 0x563c81d365c102e9),
    (3, "smoke", 4, false, 0xf7feb68107a45873, 0xd568f3265fddf733),
    (3, "smoke", 4, true, 0xd1ec1b719a017a10, 0x8a2ae6505eb0fdf7),
    (3, "smoke", 6, false, 0x52b4c257026d1b69, 0x9db10dc839ef7534),
    (3, "smoke", 6, true, 0xd9c2ba2092cfe187, 0x820c6592add31463),
    (
        3,
        "smoke",
        12,
        false,
        0x5eb228f96fd492a7,
        0x2d504667c9e4adad,
    ),
    (3, "smoke", 12, true, 0xc13952ee3d60c783, 0xa56223056b0ecd94),
];

fn plan(name: &str) -> FaultPlan {
    match name {
        "none" => FaultPlan::none(),
        "smoke" => FaultPlan::smoke(),
        other => panic!("unknown plan {other}"),
    }
}

/// A workload whose rate steps every 2 ms, so every sample moves.
fn stepped_plan(base: f64) -> WorkloadPlan {
    let mut p = WorkloadPlan::new();
    for step in 0..40 {
        let mut spec = MixSpec::idle();
        spec.uops_per_us = base + 35.0 * f64::from(step % 9);
        spec.load_frac = 0.2 + 0.02 * f64::from(step % 5);
        spec.l1_miss_rate = 0.05 + 0.01 * f64::from(step % 7);
        p.push(Segment::new(2_000_000, spec.build()));
    }
    p
}

/// A four-core host with a busy victim on core 1 and a second tenant on
/// core 2.
fn host(arch: MicroArch, plan: FaultPlan) -> (Host, VmId) {
    let mut host = Host::with_faults(arch, 4, 23, plan);
    let victim = host.launch_vm_pinned(&[1], SevMode::SevSnp).unwrap();
    let other = host.launch_vm_pinned(&[2], SevMode::SevSnp).unwrap();
    host.attach_app(victim, 0, Box::new(PlanSource::new(stepped_plan(180.0))))
        .unwrap();
    host.attach_app(other, 0, Box::new(PlanSource::new(stepped_plan(420.0))))
        .unwrap();
    for _ in 0..7 {
        host.tick();
    }
    (host, victim)
}

/// The attack events first, then the catalog's other events in order.
fn events(host: &Host, n: usize) -> Vec<EventId> {
    let catalog = host.core(1).catalog();
    let attack = catalog.attack_events();
    attack
        .iter()
        .copied()
        .chain(
            catalog
                .events()
                .iter()
                .map(|e| e.id)
                .filter(|e| !attack.contains(e)),
        )
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

fn digests(arch_ix: usize, plan_name: &str, n_events: usize, guest_only: bool) -> (u64, u64) {
    let (mut host, victim) = host(MicroArch::ALL[arch_ix], plan(plan_name));
    let ids = events(&host, n_events);
    let filter = if guest_only {
        OriginFilter::GuestOnly(victim.0)
    } else {
        OriginFilter::Any
    };
    let mut single = Fnv::new();
    single.traces(host.record_trace(&[1], &ids, filter, INTERVAL_NS, DURATION_NS));
    let mut multi = Fnv::new();
    multi.traces(host.record_trace(&[1, 2], &ids, filter, INTERVAL_NS, DURATION_NS));
    (single.0, multi.0)
}

#[test]
fn host_recordings_match_pinned_digests() {
    let mut mismatches = Vec::new();
    let mut checked = 0;
    for arch_ix in 0..MicroArch::ALL.len() {
        for plan_name in ["none", "smoke"] {
            for n_events in [1, 4, 6, 12] {
                for guest_only in [false, true] {
                    let got = digests(arch_ix, plan_name, n_events, guest_only);
                    let pinned = PINS
                        .iter()
                        .find(|p| {
                            (p.0, p.1, p.2, p.3) == (arch_ix, plan_name, n_events, guest_only)
                        })
                        .map(|p| (p.4, p.5));
                    if pinned != Some(got) {
                        mismatches.push(format!(
                            "    ({arch_ix}, {plan_name:?}, {n_events}, {guest_only}, {:#018x}, {:#018x}),",
                            got.0, got.1
                        ));
                    }
                    checked += 1;
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "recording digests moved:\n{}",
        mismatches.join("\n")
    );
    assert_eq!(checked, PINS.len(), "every combination is pinned");
}
