//! The perf-style trace recorder: programs the four hardware counter
//! slots, time-multiplexes larger event groups, scales counts by
//! enabled/running time exactly like the Linux perf subsystem, and
//! samples them into a [`Trace`] per lane at a fixed interval.
//!
//! The recorder drives any [`CounterBank`]: a [`Core`] as one lane, or
//! every lane of a [`CoreBatch`] lane group at once.
//!
//! # Why one shared fault/multiplex state is bit-exact
//!
//! Every lane of a bank shares one slot configuration and one
//! measurement-noise base: a core trivially, a lane group because its
//! lanes fork from the *same* prepared core
//! ([`CoreBatch::from_core_state`]). A recorder opened on each fork's
//! scalar core would key its fault streams by that same base. Fault
//! draws (programming failures, read corruption, slot steals) are
//! consumed on a purely *time- and structure-driven* schedule: one
//! `chance` per programming attempt, three per collected live slot, one
//! per collection for steals — never conditioned on counter *values*.
//! Lanes execute in lockstep (the caller reports identical durations to
//! every lane), so each fork's stream would sit at the same position at
//! every call. The recorder therefore keeps **one** stream set, draws
//! once per structural event, and applies the drawn fault (the same XOR
//! mask, saturation, or wrap each fork would have drawn) to every lane's
//! own value. The same argument covers `live` flags, multiplex rotation,
//! and enabled/running time: they are shared. Everything value-carrying
//! — counter accumulations and the traces themselves — stays per lane.
//!
//! One observable difference from a recorder per fork is allowed:
//! `aegis_faults::report` and the multiplex-scale histogram fire once
//! per *bank* rather than once per lane. Both are observability-only;
//! trace bytes are unaffected.
//!
//! [`Core`]: aegis_microarch::Core
//! [`CoreBatch`]: aegis_microarch::CoreBatch
//! [`CoreBatch::from_core_state`]: aegis_microarch::CoreBatch::from_core_state

use crate::trace::Trace;
use aegis_faults::{self as faults, FaultPlan, FaultStream};
use aegis_microarch::{CounterBank, CounterConfig, EventId, OriginFilter, COUNTER_SLOTS};
use std::fmt;

/// Multiplex rotation quantum (the kernel default is on the order of a
/// scheduler tick).
pub const DEFAULT_QUANTUM_NS: u64 = 4_000_000;

/// Programming attempts per slot before the recorder gives the slot up
/// for the rotation (initial try + retries).
const PROGRAM_ATTEMPTS: u32 = 4;

/// 48-bit PMC value mask (both testbed CPUs expose 48-bit counters).
const PMC_MASK: u64 = (1 << 48) - 1;

/// Error opening a [`TraceRecorder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PerfError {
    /// No events requested.
    NoEvents,
    /// An event id was rejected by the PMU (unknown on this core).
    UnknownEvent(EventId),
    /// A counter slot could not be programmed even after retries (an
    /// injected MSR-write fault persisted through every attempt).
    ProgramFailed {
        /// The hardware slot that failed.
        slot: usize,
        /// Total attempts made, including the initial try.
        attempts: u32,
    },
}

impl fmt::Display for PerfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerfError::NoEvents => f.write_str("no events requested"),
            PerfError::UnknownEvent(e) => write!(f, "event {e} unknown on this core"),
            PerfError::ProgramFailed { slot, attempts } => {
                write!(
                    f,
                    "counter slot {slot} failed to program after {attempts} attempts"
                )
            }
        }
    }
}

impl std::error::Error for PerfError {}

/// Records one [`Trace`] per lane of a [`CounterBank`], sampling at a
/// fixed interval while the simulation loop reports executed time.
///
/// The paper's attacker samples four events every 1 ms for 3 s; the
/// recorder reproduces that acquisition loop. When more events are
/// requested than the four hardware slots, groups of four are rotated on
/// a [`DEFAULT_QUANTUM_NS`] quantum and counts are *scaled* by
/// enabled/running time — the same time-multiplexing behaviour the paper
/// points out degrades accuracy, which is why the profiler monitors at
/// most `C = 4` events per pass.
///
/// Drive a recorder with the bank it was opened on.
#[derive(Debug)]
pub struct TraceRecorder {
    events: Vec<EventId>,
    filter: OriginFilter,
    groups: Vec<Vec<usize>>,
    active_group: usize,
    time_in_group_ns: u64,
    /// Enabled/running bookkeeping is lockstep across lanes (see module
    /// docs), so it is stored once.
    enabled_ns: u64,
    running_ns: Vec<u64>,
    /// Per-lane accumulations, row `lane` of `n_events` values.
    accumulated: Vec<f64>,
    faults: FaultPlan,
    /// Keyed fault streams, allocated only under an active plan so the
    /// inert plan consumes zero draws.
    program_stream: Option<FaultStream>,
    read_stream: Option<FaultStream>,
    steal_stream: Option<FaultStream>,
    /// Per-event "currently counting" flags: an event whose slot lost
    /// its programming (injected MSR fault that outlasted every retry)
    /// is *absent* — it accrues neither counts nor running
    /// time, so scaling never fabricates a clean value for it.
    live: Vec<bool>,
    interval_ns: u64,
    elapsed_in_interval_ns: u64,
    /// One trace per lane.
    traces: Vec<Trace>,
    /// Scratch for one collection's raw per-(slot, lane) values.
    collect_scratch: Vec<u64>,
}

impl TraceRecorder {
    /// Opens a recorder on every lane of `bank`, sampling `events` every
    /// `interval_ns` under the fault plan `plan`, and programs the first
    /// multiplex group.
    ///
    /// Fault streams are keyed by the bank's shared noise base, so the
    /// injected schedule is a pure function of `(plan, core seed)` —
    /// independent of lane count, worker count or scheduling.
    ///
    /// # Errors
    ///
    /// [`PerfError::NoEvents`] for an empty list,
    /// [`PerfError::UnknownEvent`] if an event is not in the catalog, and
    /// [`PerfError::ProgramFailed`] when an injected MSR fault outlasts
    /// every retry (the failing slot stays cleared, the others stay
    /// programmed). An open failure is common to every lane.
    ///
    /// # Panics
    ///
    /// If the bank has zero lanes or the lanes disagree on their noise
    /// base (not a lane group).
    pub fn open(
        bank: &mut impl CounterBank,
        events: &[EventId],
        filter: OriginFilter,
        interval_ns: u64,
        plan: FaultPlan,
    ) -> Result<Self, PerfError> {
        if events.is_empty() {
            return Err(PerfError::NoEvents);
        }
        if let Some(&e) = events.iter().find(|&&e| !bank.has_event(e)) {
            return Err(PerfError::UnknownEvent(e));
        }
        let n_lanes = bank.n_lanes();
        assert!(n_lanes > 0, "a counter bank must have at least one lane");
        let instance = bank.noise_base(0);
        assert!(
            (1..n_lanes).all(|lane| bank.noise_base(lane) == instance),
            "TraceRecorder requires a lane group (identical noise bases)"
        );
        let n = events.len();
        let active = plan.is_active();
        let stream = |site| active.then(|| FaultStream::new(&plan, site, instance));
        let mut rec = TraceRecorder {
            events: events.to_vec(),
            filter,
            groups: (0..n)
                .collect::<Vec<_>>()
                .chunks(COUNTER_SLOTS)
                .map(<[usize]>::to_vec)
                .collect(),
            active_group: 0,
            time_in_group_ns: 0,
            enabled_ns: 0,
            running_ns: vec![0; n],
            accumulated: vec![0.0; n * n_lanes],
            faults: plan,
            program_stream: stream(faults::site::PMC_PROGRAM),
            read_stream: stream(faults::site::COUNTER_READ),
            steal_stream: stream(faults::site::SLOT_STEAL),
            live: vec![false; n],
            interval_ns: interval_ns.max(1),
            elapsed_in_interval_ns: 0,
            traces: (0..n_lanes)
                .map(|_| Trace::new(events.to_vec(), interval_ns))
                .collect(),
            collect_scratch: vec![0; COUNTER_SLOTS * n_lanes],
        };
        rec.program_active(bank)?;
        Ok(rec)
    }

    /// Whether any event of the active group is currently not counting
    /// (its slot lost programming to an injected persistent fault).
    pub fn degraded(&self) -> bool {
        self.groups[self.active_group]
            .iter()
            .any(|&idx| !self.live[idx])
    }

    /// Programs the active multiplex group on every lane, retrying each
    /// slot up to [`PROGRAM_ATTEMPTS`] times when the fault plan injects
    /// an MSR write failure. A slot that stays unprogrammable is left
    /// dead (`live[idx] = false`) — its event reads as absent, never
    /// clean — and reported as the `Err`; the remaining slots still
    /// program.
    fn program_active(&mut self, bank: &mut impl CounterBank) -> Result<(), PerfError> {
        for slot in 0..COUNTER_SLOTS {
            bank.clear_slot(slot);
        }
        self.live.iter_mut().for_each(|l| *l = false);
        let mut first_failure = None;
        for (slot, &idx) in self.groups[self.active_group].iter().enumerate() {
            let mut attempts = 0;
            let programmed = loop {
                attempts += 1;
                let injected = match &mut self.program_stream {
                    Some(s) => s.chance(self.faults.pmc_program_fail),
                    None => false,
                };
                if !injected {
                    let config = CounterConfig {
                        event: self.events[idx],
                        filter: self.filter,
                    };
                    bank.program(slot, config)
                        .expect("slot < COUNTER_SLOTS and events validated at open");
                    break true;
                }
                faults::report(
                    "pmc_program",
                    "fail",
                    &[("slot", slot as u64), ("attempt", u64::from(attempts))],
                );
                if attempts >= PROGRAM_ATTEMPTS {
                    break false;
                }
            };
            self.live[idx] = programmed;
            if !programmed && first_failure.is_none() {
                first_failure = Some(PerfError::ProgramFailed { slot, attempts });
            }
        }
        first_failure.map_or(Ok(()), Err)
    }

    /// Collects the active group into the accumulations: every lane's
    /// raw reads in slot order, then one shared steal draw, then the
    /// shared per-slot value faults (corruption, saturation, 48-bit
    /// overflow wrap) applied to every lane's own value.
    fn collect_active(&mut self, bank: &mut impl CounterBank) {
        // After `program_active` the programmed slots are exactly the
        // live member slots. Noise draws are per (lane, slot), so
        // slot-major iteration reads each lane as it would alone.
        let lanes = self.traces.len();
        for slot in 0..COUNTER_SLOTS {
            if bank.programmed_event(slot).is_none() {
                continue;
            }
            for lane in 0..lanes {
                self.collect_scratch[slot * lanes + lane] =
                    bank.rdpmc(lane, slot).expect("live slots are programmed");
            }
        }
        // At most one slot per collection is stolen by a concurrent host
        // agent: its quantum's count belongs to the thief and is
        // discarded (absent, not fabricated).
        let stolen = self.steal_stream.as_mut().and_then(|s| {
            s.chance(self.faults.slot_steal)
                .then(|| s.uniform(COUNTER_SLOTS as u64) as usize)
        });
        let n = self.events.len();
        for (slot, &idx) in self.groups[self.active_group].iter().enumerate() {
            if !self.live[idx] {
                // Dead slot: nothing was counting; leave the event absent.
                continue;
            }
            for lane in 0..lanes {
                bank.reset_value(lane, slot);
            }
            if stolen == Some(slot) {
                faults::report("slot_steal", "stolen", &[("slot", slot as u64)]);
                continue;
            }
            let (corrupt_mask, saturate, overflow) = match self.read_stream.as_mut() {
                None => (None, false, false),
                Some(s) => {
                    let detail = [("slot", slot as u64)];
                    let mask = s.chance(self.faults.counter_corrupt).then(|| {
                        faults::report("counter_read", "corrupt", &detail);
                        s.bits() & 0xFFFF
                    });
                    let saturate = s.chance(self.faults.counter_saturate);
                    if saturate {
                        faults::report("counter_read", "saturate", &detail);
                    }
                    let overflow = s.chance(self.faults.counter_overflow);
                    if overflow {
                        faults::report("counter_read", "overflow", &detail);
                    }
                    (mask, saturate, overflow)
                }
            };
            for lane in 0..lanes {
                let mut out = self.collect_scratch[slot * lanes + lane];
                if let Some(m) = corrupt_mask {
                    out ^= m;
                }
                if saturate {
                    out = PMC_MASK;
                }
                if overflow {
                    // The 48-bit counter wrapped during the quantum: only
                    // the low-order residue survives.
                    out &= 0x3FF;
                }
                self.accumulated[lane * n + idx] += out as f64;
            }
        }
    }

    /// Reports that every lane executed `dur_ns`: rotates the active
    /// multiplex group when the quantum expires and closes sampling
    /// intervals as they complete. For exact sampling, drive the
    /// simulation with ticks that divide the interval.
    pub fn on_executed(&mut self, bank: &mut impl CounterBank, dur_ns: u64) {
        self.enabled_ns += dur_ns;
        for &idx in &self.groups[self.active_group] {
            if self.live[idx] {
                self.running_ns[idx] += dur_ns;
            }
        }
        self.time_in_group_ns += dur_ns;
        if self.groups.len() > 1 && self.time_in_group_ns >= DEFAULT_QUANTUM_NS {
            self.collect_active(bank);
            self.active_group = (self.active_group + 1) % self.groups.len();
            // A rotation that fails to program keeps the recorder running
            // degraded: the dead slots were reported per attempt and read
            // as absent until a later rotation succeeds.
            let _ = self.program_active(bank);
            self.time_in_group_ns = 0;
        }
        self.elapsed_in_interval_ns += dur_ns;
        while self.elapsed_in_interval_ns >= self.interval_ns {
            self.sample_and_reset(bank);
            self.elapsed_in_interval_ns -= self.interval_ns;
        }
    }

    /// Closes one sampling interval: appends the scaled counts
    /// (`count × enabled / running`, the perf multiplexing estimate) to
    /// each lane's trace, then resets the accumulation window.
    fn sample_and_reset(&mut self, bank: &mut impl CounterBank) {
        self.collect_active(bank);
        let n = self.events.len();
        let observe = self.groups.len() > 1 && aegis_obs::enabled();
        let mut slice = vec![0.0; n];
        for (lane, trace) in self.traces.iter_mut().enumerate() {
            for (i, s) in slice.iter_mut().enumerate() {
                let run = self.running_ns[i];
                *s = if run == 0 {
                    0.0
                } else {
                    let scale = self.enabled_ns as f64 / run as f64;
                    if observe && lane == 0 {
                        aegis_obs::histogram_record("perf.multiplex_scale", scale);
                    }
                    self.accumulated[lane * n + i] * scale
                };
            }
            trace.push_slice(&slice);
        }
        self.accumulated.iter_mut().for_each(|v| *v = 0.0);
        self.running_ns.iter_mut().for_each(|v| *v = 0);
        self.enabled_ns = 0;
    }

    /// Stops recording and returns one trace per lane, freeing the
    /// counter slots.
    pub fn finish(self, bank: &mut impl CounterBank) -> Vec<Trace> {
        for slot in 0..COUNTER_SLOTS {
            bank.clear_slot(slot);
        }
        self.traces
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegis_microarch::{
        named, ActivityVector, Core, CoreBatch, Feature, InterferenceConfig, MicroArch, Origin,
    };

    fn core() -> Core {
        let mut c = Core::new(MicroArch::AmdEpyc7252, 11);
        c.set_interference(InterferenceConfig::isolated());
        c
    }

    fn uops_rate(r: f64) -> ActivityVector {
        ActivityVector::from_pairs(&[(Feature::UopsRetired, r)])
    }

    fn uops(c: &Core) -> EventId {
        c.catalog().lookup(named::RETIRED_UOPS).unwrap()
    }

    fn open(c: &mut Core, events: &[EventId], interval_ns: u64) -> TraceRecorder {
        TraceRecorder::open(c, events, OriginFilter::Any, interval_ns, FaultPlan::none()).unwrap()
    }

    /// Finishes a one-lane recording.
    fn finish(rec: TraceRecorder, c: &mut Core) -> Trace {
        rec.finish(c).pop().unwrap()
    }

    #[test]
    fn open_rejects_empty_and_unknown() {
        let mut c = core();
        for (events, want) in [
            (vec![], PerfError::NoEvents),
            (
                vec![EventId(u32::MAX)],
                PerfError::UnknownEvent(EventId(u32::MAX)),
            ),
        ] {
            let rec = TraceRecorder::open(&mut c, &events, OriginFilter::Any, 1, FaultPlan::none());
            assert_eq!(rec.err(), Some(want));
        }
    }

    #[test]
    fn open_errors_match_scalar_semantics() {
        let mut c = core();
        let mut batch = CoreBatch::from_core_state(&c, 2);
        let ev = uops(&c);
        let persistent = FaultPlan {
            seed: 1,
            pmc_program_fail: 1.0,
            ..FaultPlan::none()
        };
        for (events, plan, want) in [
            (vec![], FaultPlan::none(), PerfError::NoEvents),
            (
                vec![EventId(u32::MAX)],
                FaultPlan::none(),
                PerfError::UnknownEvent(EventId(u32::MAX)),
            ),
            (
                vec![ev],
                persistent,
                PerfError::ProgramFailed {
                    slot: 0,
                    attempts: PROGRAM_ATTEMPTS,
                },
            ),
        ] {
            // A lane group fails exactly as each of its forks does.
            let scalar = TraceRecorder::open(&mut c, &events, OriginFilter::Any, 1, plan);
            let lanes = TraceRecorder::open(&mut batch, &events, OriginFilter::Any, 1, plan);
            assert_eq!(scalar.err(), Some(want.clone()));
            assert_eq!(lanes.err(), Some(want));
        }
    }

    #[test]
    fn four_events_not_multiplexed() {
        let mut c = core();
        let ids: Vec<EventId> = c.catalog().events().iter().map(|e| e.id).take(5).collect();
        assert_eq!(open(&mut c, &ids[..4], 1).groups.len(), 1);
        assert_eq!(open(&mut c, &ids, 1).groups.len(), 2);
    }

    #[test]
    fn counts_accumulate_unmultiplexed() {
        let mut c = core();
        let ev = uops(&c);
        let mut rec = open(&mut c, &[ev], 1_000_000);
        for _ in 0..10 {
            c.run_mix(&uops_rate(100.0), 100_000, Origin::Host); // 0.1ms
            rec.on_executed(&mut c, 100_000);
        }
        let count = finish(rec, &mut c).row(0)[0];
        // 1 ms total at 100 uops/us = 100k uops.
        assert!((count - 100_000.0).abs() < 15_000.0, "{count}");
    }

    #[test]
    fn multiplexed_scaling_estimates_true_count() {
        let mut c = core();
        // Monitor RETIRED_UOPS plus 7 fillers → 2 groups, ~50% running each.
        let uops_ev = uops(&c);
        let mut ids = vec![uops_ev];
        ids.extend(
            c.catalog()
                .events()
                .iter()
                .map(|e| e.id)
                .filter(|&e| e != uops_ev)
                .take(7),
        );
        // One 40 ms sample: ten quanta, five per group.
        let mut rec = open(&mut c, &ids, 40_000_000);
        assert_eq!(rec.groups.len(), 2);
        for _ in 0..400 {
            c.run_mix(&uops_rate(100.0), 100_000, Origin::Host);
            rec.on_executed(&mut c, 100_000);
        }
        let count = finish(rec, &mut c).row(0)[0];
        // 40 ms at 100 uops/us = 4e6 uops; RETIRED_UOPS has weight 1.0
        // and ran only half the time, so scaling must recover ~4e6.
        let expected = 4.0e6;
        assert!(
            (count - expected).abs() / expected < 0.25,
            "scaled {count} vs expected {expected}"
        );
    }

    #[test]
    fn sample_and_reset_windows_are_independent() {
        let mut c = core();
        let ev = uops(&c);
        let mut rec = open(&mut c, &[ev], 1_000_000);
        c.run_mix(&uops_rate(50.0), 1_000_000, Origin::Host);
        rec.on_executed(&mut c, 1_000_000);
        rec.on_executed(&mut c, 1_000_000);
        let trace = finish(rec, &mut c);
        assert!(trace.row(0)[0] > 10_000.0);
        assert_eq!(trace.row(0)[1], 0.0);
    }

    #[test]
    fn guest_filter_sees_only_guest_activity() {
        let mut c = core();
        let ev = uops(&c);
        let mut rec = TraceRecorder::open(
            &mut c,
            &[ev],
            OriginFilter::GuestOnly(1),
            1_000_000,
            FaultPlan::none(),
        )
        .unwrap();
        c.run_mix(&uops_rate(100.0), 1_000_000, Origin::Host);
        rec.on_executed(&mut c, 1_000_000);
        c.run_mix(&uops_rate(100.0), 1_000_000, Origin::Guest(1));
        rec.on_executed(&mut c, 1_000_000);
        let trace = finish(rec, &mut c);
        assert_eq!(trace.row(0)[0], 0.0);
        assert!(trace.row(0)[1] > 0.0);
    }

    #[test]
    fn persistent_program_fault_errors_at_open() {
        let mut c = core();
        let ev = uops(&c);
        let plan = FaultPlan {
            seed: 1,
            pmc_program_fail: 1.0,
            ..FaultPlan::none()
        };
        match TraceRecorder::open(&mut c, &[ev], OriginFilter::Any, 1_000_000, plan) {
            Err(PerfError::ProgramFailed { slot: 0, attempts }) => {
                assert_eq!(attempts, PROGRAM_ATTEMPTS);
            }
            other => panic!("expected ProgramFailed, got {other:?}"),
        }
        assert_eq!(c.programmed_event(0), None, "the dead slot stays clear");
    }

    #[test]
    fn transient_program_fault_recovers_with_backoff() {
        // Moderate failure rate: some attempts fail, the retries absorb
        // them, and the recorder still counts.
        let mut c = core();
        let ev = uops(&c);
        let plan = FaultPlan {
            seed: 3,
            pmc_program_fail: 0.4,
            ..FaultPlan::none()
        };
        let mut rec = TraceRecorder::open(&mut c, &[ev], OriginFilter::Any, 1_000_000, plan)
            .expect("p=0.4 cannot survive 4 attempts at seed 3");
        assert!(!rec.degraded());
        c.run_mix(&uops_rate(100.0), 1_000_000, Origin::Host);
        rec.on_executed(&mut c, 1_000_000);
        assert!(finish(rec, &mut c).row(0)[0] > 0.0);
    }

    #[test]
    fn inert_plan_matches_plain_open_bit_for_bit() {
        // An inactive plan draws nothing, whatever its seed.
        let run = |plan: FaultPlan| {
            let mut c = core();
            let ids: Vec<EventId> = c.catalog().events().iter().map(|e| e.id).take(6).collect();
            let mut rec =
                TraceRecorder::open(&mut c, &ids, OriginFilter::Any, 1_000_000, plan).unwrap();
            for _ in 0..100 {
                c.run_mix(&uops_rate(70.0), 100_000, Origin::Host);
                rec.on_executed(&mut c, 100_000);
            }
            finish(rec, &mut c)
        };
        let seeded = FaultPlan {
            seed: 99,
            ..FaultPlan::none()
        };
        assert!(!seeded.is_active());
        assert_eq!(run(FaultPlan::none()), run(seeded));
    }

    #[test]
    fn fault_schedule_is_reproducible() {
        let plan = FaultPlan {
            seed: 77,
            pmc_program_fail: 0.2,
            slot_steal: 0.3,
            counter_corrupt: 0.3,
            counter_saturate: 0.05,
            counter_overflow: 0.05,
            ..FaultPlan::none()
        };
        let run = |plan: FaultPlan| {
            let mut c = core();
            let ids: Vec<EventId> = c.catalog().events().iter().map(|e| e.id).take(8).collect();
            let mut rec =
                TraceRecorder::open(&mut c, &ids, OriginFilter::Any, 1_000_000, plan).unwrap();
            for _ in 0..200 {
                c.run_mix(&uops_rate(90.0), 100_000, Origin::Host);
                rec.on_executed(&mut c, 100_000);
            }
            finish(rec, &mut c)
        };
        assert_eq!(run(plan), run(plan));
        assert_ne!(run(plan), run(FaultPlan::none()), "the plan must fire");
    }

    #[test]
    fn close_frees_slots() {
        let mut c = core();
        let ev = uops(&c);
        let rec = open(&mut c, &[ev], 1_000_000);
        assert!(c.rdpmc(0, 0).is_ok());
        rec.finish(&mut c);
        assert!(c.rdpmc(0, 0).is_err());
    }

    #[test]
    fn records_expected_number_of_slices() {
        let mut c = Core::new(MicroArch::AmdEpyc7252, 3);
        c.set_interference(InterferenceConfig::isolated());
        let ev = uops(&c);
        let mut rec = open(&mut c, &[ev], 1_000_000);
        let rate = uops_rate(10.0);
        // 30 ticks of 100 µs = 3 ms → 3 slices of 1 ms.
        for _ in 0..30 {
            c.run_mix(&rate, 100_000, Origin::Host);
            rec.on_executed(&mut c, 100_000);
        }
        let trace = finish(rec, &mut c);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.n_events(), 1);
        for &v in trace.row(0) {
            assert!((v - 10_000.0).abs() < 3_000.0, "{v}");
        }
    }

    #[test]
    fn partial_interval_not_emitted() {
        let mut c = Core::new(MicroArch::AmdEpyc7252, 3);
        let ev = uops(&c);
        let mut rec = open(&mut c, &[ev], 1_000_000);
        rec.on_executed(&mut c, 900_000);
        assert!(rec.traces[0].is_empty());
        rec.on_executed(&mut c, 100_000);
        assert_eq!(finish(rec, &mut c).len(), 1);
    }

    /// Every lane of a lane group, driven in lockstep with its scalar
    /// twin through the same recorder, produces a bit-identical trace —
    /// with and without active faults, single-group and multiplexed.
    #[test]
    fn lanes_bit_match_scalar_recorder() {
        let rate = |r: f64| {
            ActivityVector::from_pairs(&[(Feature::UopsRetired, r), (Feature::Cycles, 2.0 * r)])
        };
        for plan in [FaultPlan::none(), FaultPlan::smoke()] {
            for n_events in [1usize, 4, 6, 12] {
                let mut core = Core::new(MicroArch::AmdEpyc7252, 9);
                core.set_interference(InterferenceConfig::isolated());
                let ids: Vec<EventId> = core
                    .catalog()
                    .events()
                    .iter()
                    .map(|e| e.id)
                    .take(n_events)
                    .collect();
                let mut batch = CoreBatch::from_core_state(&core, 3);
                let mut lrec =
                    TraceRecorder::open(&mut batch, &ids, OriginFilter::Any, 1_000_000, plan)
                        .unwrap();
                let mut twins: Vec<(Core, TraceRecorder)> = (0..3)
                    .map(|_| {
                        let mut c = core.clone();
                        let r =
                            TraceRecorder::open(&mut c, &ids, OriginFilter::Any, 1_000_000, plan)
                                .unwrap();
                        (c, r)
                    })
                    .collect();
                for tick in 0..200u64 {
                    let r = rate(40.0 + (tick % 7) as f64);
                    for lane in 0..3 {
                        batch.run_mix(lane, &r, 100_000, Origin::Host);
                    }
                    lrec.on_executed(&mut batch, 100_000);
                    for (c, rec) in &mut twins {
                        c.run_mix(&r, 100_000, Origin::Host);
                        rec.on_executed(c, 100_000);
                    }
                }
                let lane_traces = lrec.finish(&mut batch);
                for (lane, (mut c, rec)) in twins.into_iter().enumerate() {
                    assert_eq!(
                        finish(rec, &mut c).data,
                        lane_traces[lane].data,
                        "lane {lane} diverged (events={n_events}, active={})",
                        plan.is_active()
                    );
                }
            }
        }
    }
}
