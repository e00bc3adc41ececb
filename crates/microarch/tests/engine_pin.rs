//! Pins the core engine bit for bit.
//!
//! For every processor model, one scripted session drives a [`Core`], a
//! width-3 [`CoreBatch`] whose lanes are reseeded copies of the same
//! prepared core, and a width-3 batch of exact mid-stream copies of it.
//! A digest folds everything the session observes: `execute_instr` and
//! `run_mix` deltas from host and guest origins, `rdpmc` results under
//! the `Any`, `GuestOnly` and `HostOnly` filters on guest-visible and
//! host-only events, `reset_value`, `clear_slot` and re-programming, the
//! fail-closed latch, `skip_mixes`, `cycles` and `cache_resident_lines`.
//! The core's digest also covers a mid-session `reseed` and its activity
//! log. Any change to instruction or mix semantics, counter gating,
//! read noise, draw accounting or lane seeding moves a digest.
//!
//! The digests were captured on the engine that still kept a separate
//! scalar counter unit next to the batch's counter rows, before the two
//! were folded into one; they are what shows the fold moved no counter
//! semantics. Reseed steps run on the core only: a batch lane had no
//! reseed of its own when the digests were taken, so the reseeded batch
//! pins lane seeding at construction instead.

use aegis_isa::{well_known, InstructionSpec, WellKnown};
use aegis_microarch::{
    ActivityVector, Core, CoreBatch, CounterBank, CounterConfig, EventId, ExecError, Feature,
    InterferenceConfig, MicroArch, Origin, OriginFilter, PmuError, COUNTER_SLOTS,
};
use aegis_par::splitmix64;

/// `(arch index, core, reseeded batch, mid-stream batch)`.
const PINS: &[(usize, u64, u64, u64)] = &[
    (
        0,
        0x9a5d8ab4af91ce98,
        0x740e096ea9aa2dee,
        0x0b3bafda704cd6fb,
    ),
    (
        1,
        0x9a5d8ab4af91ce98,
        0x740e096ea9aa2dee,
        0x0b3bafda704cd6fb,
    ),
    (
        2,
        0x2c25c9f52d5cf893,
        0x98809fa0f044fa4f,
        0xcb8b718a23c0b5a9,
    ),
    (
        3,
        0x2c25c9f52d5cf893,
        0x98809fa0f044fa4f,
        0xcb8b718a23c0b5a9,
    ),
];

/// Lanes per batch session.
const LANES: usize = 3;

/// Reseed values of the reseeded batch's lanes.
const LANE_SEEDS: [u64; LANES] = [11, 0x5eed_cafe, 42];

/// Script steps per session phase.
const STEPS: u64 = 160;

/// What one session step can do to a lane, implemented by a core (one
/// lane) and by a batch (every lane).
trait Engine: CounterBank {
    fn instr(
        &mut self,
        lane: usize,
        spec: &InstructionSpec,
        origin: Origin,
    ) -> Result<ActivityVector, ExecError>;
    fn mix(
        &mut self,
        lane: usize,
        rate: &ActivityVector,
        dur_ns: u64,
        origin: Origin,
    ) -> ActivityVector;
    fn flush(&mut self, lane: usize);
    fn lane_cycles(&self, lane: usize) -> u64;
    fn resident(&self, lane: usize) -> usize;
    fn latch(&mut self, lane: usize, on: bool);
    fn latched(&self, lane: usize) -> bool;
    fn skip(&mut self, lane: usize, steps: u64, cycles: u64);
    /// Reseeds the lane where the engine can (the core only).
    fn reseed_lane(&mut self, lane: usize, seed: u64);
}

impl Engine for Core {
    fn instr(
        &mut self,
        _lane: usize,
        spec: &InstructionSpec,
        origin: Origin,
    ) -> Result<ActivityVector, ExecError> {
        self.execute_instr(spec, origin)
    }

    fn mix(
        &mut self,
        _lane: usize,
        rate: &ActivityVector,
        dur_ns: u64,
        origin: Origin,
    ) -> ActivityVector {
        self.run_mix(rate, dur_ns, origin)
    }

    fn flush(&mut self, _lane: usize) {
        self.reset_cache();
    }

    fn lane_cycles(&self, _lane: usize) -> u64 {
        self.cycles()
    }

    fn resident(&self, _lane: usize) -> usize {
        self.cache_resident_lines()
    }

    fn latch(&mut self, _lane: usize, on: bool) {
        self.set_fail_closed(on);
    }

    fn latched(&self, _lane: usize) -> bool {
        self.fail_closed()
    }

    fn skip(&mut self, _lane: usize, steps: u64, cycles: u64) {
        self.skip_mixes(steps, cycles);
    }

    fn reseed_lane(&mut self, _lane: usize, seed: u64) {
        self.reseed(seed);
    }
}

impl Engine for CoreBatch {
    fn instr(
        &mut self,
        lane: usize,
        spec: &InstructionSpec,
        origin: Origin,
    ) -> Result<ActivityVector, ExecError> {
        self.execute_instr(lane, spec, origin)
    }

    fn mix(
        &mut self,
        lane: usize,
        rate: &ActivityVector,
        dur_ns: u64,
        origin: Origin,
    ) -> ActivityVector {
        self.run_mix(lane, rate, dur_ns, origin)
    }

    fn flush(&mut self, lane: usize) {
        self.reset_cache(lane);
    }

    fn lane_cycles(&self, lane: usize) -> u64 {
        self.cycles(lane)
    }

    fn resident(&self, lane: usize) -> usize {
        self.cache_resident_lines(lane)
    }

    fn latch(&mut self, lane: usize, on: bool) {
        self.set_fail_closed(lane, on);
    }

    fn latched(&self, lane: usize) -> bool {
        self.fail_closed(lane)
    }

    fn skip(&mut self, lane: usize, steps: u64, _cycles: u64) {
        self.skip_mixes(lane, steps);
    }

    fn reseed_lane(&mut self, _lane: usize, _seed: u64) {}
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

    fn delta(&mut self, d: &ActivityVector) {
        for v in d.0 {
            self.word(v.to_bits());
        }
    }

    fn exec(&mut self, got: Result<ActivityVector, ExecError>) {
        match got {
            Ok(d) => self.delta(&d),
            Err(e) => self.word(0xE0 + e as u64),
        }
    }

    fn read(&mut self, got: Result<u64, PmuError>) {
        match got {
            Ok(v) => self.word(v),
            Err(PmuError::BadSlot(s)) => self.word(0xB0 + s as u64),
            Err(PmuError::Unprogrammed(s)) => self.word(0xC0 + s as u64),
            Err(PmuError::UnknownEvent(e)) => self.word(0xD0 + u64::from(e.0)),
        }
    }
}

/// The events the script counts: a guest-visible hardware event and a
/// host-only software event, both with a non-empty response.
fn events(core: &Core) -> (EventId, EventId) {
    let catalog = core.catalog();
    let pick = |visible: bool| {
        catalog
            .events()
            .iter()
            .find(|e| e.guest_visible == visible && !e.response.is_empty())
            .expect("catalog has the event")
            .id
    };
    (pick(true), pick(false))
}

/// Slot programming covering every filter on both kinds of event; `alt`
/// swaps which event each filter counts.
fn programming(hw: EventId, sw: EventId, alt: bool) -> [CounterConfig; COUNTER_SLOTS] {
    let (a, b) = if alt { (sw, hw) } else { (hw, sw) };
    [
        CounterConfig {
            event: a,
            filter: OriginFilter::Any,
        },
        CounterConfig {
            event: a,
            filter: OriginFilter::GuestOnly(1),
        },
        CounterConfig {
            event: b,
            filter: OriginFilter::Any,
        },
        CounterConfig {
            event: a,
            filter: OriginFilter::HostOnly,
        },
    ]
}

fn program_all<E: Engine>(e: &mut E, cfgs: &[CounterConfig; COUNTER_SLOTS]) {
    for (slot, cfg) in cfgs.iter().enumerate() {
        e.program(slot, *cfg).unwrap();
    }
}

/// Instruction pool touching every stochastic site: branches, loads and
/// stores (cache, DTLB), flush, serialization, SIMD, x87, and an illegal
/// and a privileged variant that fault.
fn op_pool() -> Vec<InstructionSpec> {
    let mut ops: Vec<InstructionSpec> = [
        WellKnown::Nop,
        WellKnown::Load64,
        WellKnown::Store64,
        WellKnown::Clflush,
        WellKnown::Cpuid,
        WellKnown::SimdAdd,
        WellKnown::FpAdd,
        WellKnown::BranchBiased,
        WellKnown::Add64,
    ]
    .into_iter()
    .map(well_known)
    .collect();
    let mut illegal = well_known(WellKnown::Add64);
    illegal.legal = false;
    let mut privileged = well_known(WellKnown::Nop);
    privileged.privileged = true;
    ops.push(illegal);
    ops.push(privileged);
    ops
}

fn origin(bits: u64) -> Origin {
    match bits % 3 {
        0 => Origin::Host,
        1 => Origin::Guest(1),
        _ => Origin::Guest(2),
    }
}

/// A core with every slot programmed, warmed so lanes copied from it
/// inherit non-trivial cache, predictor, counter and draw state.
fn prepared(arch: MicroArch) -> Core {
    let mut core = Core::new(arch, 0x0e_9e1e);
    core.set_interference(InterferenceConfig {
        irq_rate_per_us: 3.0,
        mix_jitter: 0.05,
    });
    let (hw, sw) = events(&core);
    program_all(&mut core, &programming(hw, sw, false));
    let ops = op_pool();
    for i in 0..9 {
        let _ = core.execute_instr(&ops[i % ops.len()], origin(i as u64));
    }
    core.run_mix(&mix_rate(0), 4_000, Origin::Guest(1));
    let _ = core.rdpmc(0, 0);
    core
}

/// A mix rate that also carries kernel features, so a guest-origin mix
/// would move the host-only event if the SEV visibility gate leaked.
fn mix_rate(k: u64) -> ActivityVector {
    ActivityVector::from_pairs(&[
        (Feature::UopsRetired, 120.0 + 7.0 * (k % 5) as f64),
        (Feature::Loads, 30.0),
        (Feature::LlcMiss, 0.4),
        (Feature::Cycles, 200.0),
        (Feature::Interrupts, 0.02),
        (Feature::Syscalls, 0.5),
        (Feature::PageFaults, 0.1),
    ])
}

/// One scripted phase on every lane in lockstep.
fn phase<E: Engine>(e: &mut E, h: &mut Fnv, salt: u64, hw: EventId, sw: EventId) {
    let ops = op_pool();
    let lanes = e.n_lanes();
    for i in 0..STEPS {
        let bits = splitmix64(salt ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let arg = bits >> 8;
        match bits % 16 {
            0..=6 => {
                let spec = &ops[(arg % ops.len() as u64) as usize];
                for lane in 0..lanes {
                    h.exec(e.instr(lane, spec, origin(arg >> 8)));
                }
            }
            7 | 8 => {
                let dur = 2_000 + 500 * (arg % 7);
                for lane in 0..lanes {
                    let d = e.mix(lane, &mix_rate(arg), dur, origin(arg >> 8));
                    h.delta(&d);
                }
            }
            9 | 10 => {
                let slot = (arg % COUNTER_SLOTS as u64) as usize;
                for lane in 0..lanes {
                    h.read(e.rdpmc(lane, slot));
                }
            }
            11 => {
                let slot = (arg % COUNTER_SLOTS as u64) as usize;
                for lane in 0..lanes {
                    e.reset_value(lane, slot);
                }
            }
            12 => {
                // Clear one slot, read the hole, then re-program it with
                // the other event behind the same filter.
                let slot = (arg % COUNTER_SLOTS as u64) as usize;
                e.clear_slot(slot);
                h.read(e.rdpmc(0, slot));
                h.word(e.programmed_event(slot).map_or(0xFF, |ev| u64::from(ev.0)));
                let cfg = programming(hw, sw, arg & 0x100 != 0)[slot];
                e.program(slot, cfg).unwrap();
                h.word(u64::from(e.programmed_event(slot).unwrap().0));
            }
            13 => {
                for lane in 0..lanes {
                    let on = (arg >> lane) & 1 == 1;
                    e.latch(lane, on);
                    h.word(u64::from(e.latched(lane)));
                }
            }
            14 => {
                for lane in 0..lanes {
                    if (arg >> lane) & 1 == 1 {
                        e.flush(lane);
                    }
                }
            }
            _ => {
                for lane in 0..lanes {
                    h.word(e.lane_cycles(lane));
                    h.word(e.resident(lane) as u64);
                }
            }
        }
    }
    for lane in 0..lanes {
        h.word(e.lane_cycles(lane));
        h.word(e.resident(lane) as u64);
        for slot in 0..COUNTER_SLOTS {
            h.read(e.rdpmc(lane, slot));
        }
    }
}

/// The whole session: a phase, an out-of-range slot, a fast-forward past
/// skipped mixes with no counter programmed, re-programming, a reseed
/// (core only), and a last phase.
fn session<E: Engine>(e: &mut E, arch: MicroArch) -> u64 {
    let mut h = Fnv::new();
    let (hw, sw) = events(&Core::new(arch, 0));
    phase(e, &mut h, 1, hw, sw);
    h.read(e.rdpmc(0, COUNTER_SLOTS + 1));
    h.read(
        e.program(COUNTER_SLOTS, programming(hw, sw, false)[0])
            .map(|()| 0),
    );
    h.read(
        e.program(
            0,
            CounterConfig {
                event: EventId(u32::MAX),
                filter: OriginFilter::Any,
            },
        )
        .map(|()| 0),
    );
    for slot in 0..COUNTER_SLOTS {
        e.clear_slot(slot);
    }
    for lane in 0..e.n_lanes() {
        e.latch(lane, false);
        e.skip(lane, 5 + lane as u64, 1_000 * (lane as u64 + 1));
        h.delta(&e.mix(lane, &mix_rate(3), 3_000, Origin::Host));
        h.word(e.lane_cycles(lane));
    }
    program_all(e, &programming(hw, sw, true));
    for lane in 0..e.n_lanes() {
        e.reseed_lane(lane, 0xabc + lane as u64);
    }
    phase(e, &mut h, 2, hw, sw);
    h.0
}

/// The core session, followed by a recorded stretch of its activity log.
fn core_digest(arch: MicroArch) -> u64 {
    let mut core = prepared(arch);
    let mut h = Fnv(session(&mut core, arch));
    core.start_recording();
    let ops = op_pool();
    for i in 0..40u64 {
        if i % 4 == 0 {
            core.run_mix(&mix_rate(i), 3_000, origin(i));
        } else {
            let _ = core.execute_instr(&ops[i as usize % ops.len()], origin(i));
        }
    }
    h.word(core.recording_len() as u64);
    for (o, d) in core.take_recording() {
        h.word(match o {
            Origin::Host => u64::MAX,
            Origin::Guest(g) => u64::from(g),
        });
        h.delta(&d);
    }
    h.0
}

/// Lanes copied from `core` and reseeded at construction.
fn reseeded_batch(core: &Core) -> CoreBatch {
    let mut batch = CoreBatch::from_core_state(core, LANES);
    for (lane, &seed) in LANE_SEEDS.iter().enumerate() {
        batch.reseed(lane, seed);
    }
    batch
}

fn digests(arch: MicroArch) -> (u64, u64, u64) {
    let mut reseeded = reseeded_batch(&prepared(arch));
    let mut mid_stream = CoreBatch::from_core_state(&prepared(arch), LANES);
    (
        core_digest(arch),
        session(&mut reseeded, arch),
        session(&mut mid_stream, arch),
    )
}

#[test]
fn engine_sessions_match_pinned_digests() {
    let mut mismatches = Vec::new();
    for (arch_ix, &arch) in MicroArch::ALL.iter().enumerate() {
        let got = digests(arch);
        let pinned = PINS
            .iter()
            .find(|p| p.0 == arch_ix)
            .map(|p| (p.1, p.2, p.3));
        if pinned != Some(got) {
            mismatches.push(format!(
                "    ({arch_ix}, {:#018x}, {:#018x}, {:#018x}),",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "engine digests moved:\n{}",
        mismatches.join("\n")
    );
    assert_eq!(PINS.len(), MicroArch::ALL.len(), "every model is pinned");
}
