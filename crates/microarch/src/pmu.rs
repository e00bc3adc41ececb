//! Performance monitoring unit: four programmable counters per core.

use crate::activity::{ActivityVector, Origin};
use crate::events::{EventCatalog, EventId};
use crate::response::{CounterLane, ResponseMatrix};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Number of programmable counter registers per core (both testbed CPUs
/// expose four, which bounds concurrent monitoring — `C = 4` in the
/// paper's profiling cost model).
pub const COUNTER_SLOTS: usize = 4;

/// Which activity origins a programmed counter accumulates, mirroring the
/// perf `exclude_*`/`pid` attributes the paper configures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OriginFilter {
    /// Count everything on the core — the malicious host's view.
    Any,
    /// Count only activity of the given guest (perf `pid` +
    /// `exclude_kernel`, as in the paper's profiling setup).
    GuestOnly(u32),
    /// Count only host activity.
    HostOnly,
}

impl OriginFilter {
    pub(crate) fn matches(self, origin: Origin) -> bool {
        match (self, origin) {
            (OriginFilter::Any, _) => true,
            (OriginFilter::GuestOnly(vm), Origin::Guest(g)) => vm == g,
            (OriginFilter::HostOnly, Origin::Host) => true,
            _ => false,
        }
    }
}

/// Configuration of one programmed counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterConfig {
    /// The HPC event to count.
    pub event: EventId,
    /// Origin filter.
    pub filter: OriginFilter,
}

#[derive(Debug, Clone)]
struct Counter {
    config: CounterConfig,
    lane: CounterLane,
}

/// Error programming or reading the PMU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmuError {
    /// Slot index out of range.
    BadSlot(usize),
    /// Event id not present in the core's catalog.
    UnknownEvent(EventId),
    /// RDPMC of an unprogrammed slot.
    Unprogrammed(usize),
}

impl fmt::Display for PmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmuError::BadSlot(s) => write!(f, "counter slot {s} out of range"),
            PmuError::UnknownEvent(e) => write!(f, "event {e} not in catalog"),
            PmuError::Unprogrammed(s) => write!(f, "counter slot {s} not programmed"),
        }
    }
}

impl std::error::Error for PmuError {}

/// The per-core PMU: four programmable counters over executed activity.
///
/// Counters accumulate raw activity vectors; the event's linear response
/// (one dense [`ResponseMatrix`] row), a measurement-noise draw, and
/// RDPMC truncation are applied per *read*. Noise streams are keyed
/// per (event, read index) from the core's noise base — never from the
/// core's execution RNG — so counter values are independent of slot
/// programming order and core execution is independent of which counters
/// are programmed.
#[derive(Debug, Clone)]
pub struct Pmu {
    catalog: Arc<EventCatalog>,
    matrix: Arc<ResponseMatrix>,
    noise_base: u64,
    slots: [Option<Counter>; COUNTER_SLOTS],
    /// Fail-closed latch: while set, guest-visible lanes read 0 (the
    /// counter is architecturally disabled — no RDPMC happens, so no
    /// noise draw is consumed). Set by the host's supervision layer
    /// whenever obfuscation on this core cannot be guaranteed.
    fail_closed: bool,
}

impl Pmu {
    /// Creates a PMU over the given event catalog with all slots free.
    /// `noise_base` keys the measurement-noise streams (derive it from
    /// the core seed via [`crate::response::noise_base_for_seed`]).
    pub fn new(catalog: Arc<EventCatalog>, noise_base: u64) -> Self {
        let matrix = ResponseMatrix::shared(catalog.arch());
        Pmu {
            catalog,
            matrix,
            noise_base,
            slots: [None, None, None, None],
            fail_closed: false,
        }
    }

    /// Latches (or releases) fail-closed mode. While latched, reads of
    /// guest-visible lanes return 0 and consume no noise draws —
    /// degraded output is *absent*, never clean. Host-only software
    /// events keep reading normally: they carry no guest secrets.
    pub fn set_fail_closed(&mut self, on: bool) {
        self.fail_closed = on;
    }

    /// Whether the fail-closed latch is set.
    pub fn fail_closed(&self) -> bool {
        self.fail_closed
    }

    /// The catalog this PMU resolves events against.
    pub fn catalog(&self) -> &Arc<EventCatalog> {
        &self.catalog
    }

    /// The shared dense response matrix backing accumulation.
    pub fn matrix(&self) -> &Arc<ResponseMatrix> {
        &self.matrix
    }

    /// The noise base keying this PMU's measurement-noise streams.
    pub fn noise_base(&self) -> u64 {
        self.noise_base
    }

    /// Re-keys the measurement-noise streams (used by `Core::reseed`).
    /// Does not reset per-lane draw counters.
    pub fn set_noise_base(&mut self, noise_base: u64) {
        self.noise_base = noise_base;
    }

    /// Programs a counter slot, zeroing its value.
    ///
    /// # Errors
    ///
    /// Returns [`PmuError::BadSlot`] or [`PmuError::UnknownEvent`].
    pub fn program(&mut self, slot: usize, config: CounterConfig) -> Result<(), PmuError> {
        if slot >= COUNTER_SLOTS {
            return Err(PmuError::BadSlot(slot));
        }
        if self.catalog.get(config.event).is_none() {
            return Err(PmuError::UnknownEvent(config.event));
        }
        self.slots[slot] = Some(Counter {
            config,
            lane: CounterLane::new(&self.matrix, config.event),
        });
        Ok(())
    }

    /// Clears a counter slot.
    pub fn clear(&mut self, slot: usize) {
        if let Some(s) = self.slots.get_mut(slot) {
            *s = None;
        }
    }

    /// Reads a programmed counter (the `RDPMC` instruction). Every read
    /// consumes one draw of the event's measurement-noise stream.
    ///
    /// # Errors
    ///
    /// Returns [`PmuError::Unprogrammed`] or [`PmuError::BadSlot`].
    pub fn rdpmc(&self, slot: usize) -> Result<u64, PmuError> {
        let c = self
            .slots
            .get(slot)
            .ok_or(PmuError::BadSlot(slot))?
            .as_ref()
            .ok_or(PmuError::Unprogrammed(slot))?;
        if self.fail_closed && c.lane.guest_visible() {
            return Ok(0);
        }
        Ok(c.lane.read(&self.matrix, self.noise_base))
    }

    /// Reads every programmed slot at once — the batched view a perf-style
    /// monitor uses to collect a whole multiplex group per rotation.
    pub fn read_group(&self) -> [Option<u64>; COUNTER_SLOTS] {
        let mut out = [None; COUNTER_SLOTS];
        for (slot, c) in self.slots.iter().enumerate() {
            out[slot] = c.as_ref().map(|c| {
                if self.fail_closed && c.lane.guest_visible() {
                    0
                } else {
                    c.lane.read(&self.matrix, self.noise_base)
                }
            });
        }
        out
    }

    /// Zeroes the value of a programmed counter without reprogramming it.
    pub fn reset_value(&mut self, slot: usize) {
        if let Some(Some(c)) = self.slots.get_mut(slot).map(Option::as_mut) {
            c.lane.reset_value();
        }
    }

    /// Event programmed in a slot, if any.
    pub fn programmed_event(&self, slot: usize) -> Option<EventId> {
        self.slots.get(slot)?.as_ref().map(|c| c.config.event)
    }

    /// Full configuration and lane state of a programmed slot — the batch
    /// engine's template view when seeding lanes from an existing core.
    pub(crate) fn slot_state(&self, slot: usize) -> Option<(CounterConfig, &CounterLane)> {
        self.slots.get(slot)?.as_ref().map(|c| (c.config, &c.lane))
    }

    /// Accumulates an activity delta into all matching counters.
    ///
    /// Guest-origin activity only moves events that are guest visible —
    /// the SEV observability boundary described in the paper: hardware
    /// events fire for sealed guests while host software events and most
    /// tracepoints do not.
    pub fn apply(&mut self, delta: &ActivityVector, origin: Origin) {
        for slot in self.slots.iter_mut().flatten() {
            if !slot.config.filter.matches(origin) {
                continue;
            }
            slot.lane.accumulate(delta, origin);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Feature;
    use crate::arch::MicroArch;
    use crate::events::named;

    fn pmu() -> (Pmu, EventId) {
        let cat = EventCatalog::shared(MicroArch::AmdEpyc7252);
        let ev = cat.lookup(named::RETIRED_UOPS).unwrap();
        (Pmu::new(cat, 0xbead), ev)
    }

    #[test]
    fn program_and_read() {
        let (mut pmu, ev) = pmu();
        pmu.program(
            0,
            CounterConfig {
                event: ev,
                filter: OriginFilter::Any,
            },
        )
        .unwrap();
        assert_eq!(pmu.rdpmc(0).unwrap(), 0);
        let delta = ActivityVector::from_pairs(&[(Feature::UopsRetired, 1000.0)]);
        pmu.apply(&delta, Origin::Host);
        let v = pmu.rdpmc(0).unwrap();
        assert!((900..1100).contains(&v), "{v}");
    }

    #[test]
    fn counts_are_independent_of_slot_order() {
        // Programming the same pair of events in either slot order must
        // produce identical values: noise streams are keyed per event,
        // not per slot or per shared-RNG consumption order.
        let cat = EventCatalog::shared(MicroArch::AmdEpyc7252);
        let uops = cat.lookup(named::RETIRED_UOPS).unwrap();
        let refills = cat.lookup(named::DATA_CACHE_REFILLS_FROM_SYSTEM).unwrap();
        let deltas: Vec<ActivityVector> = (0..20)
            .map(|i| {
                ActivityVector::from_pairs(&[
                    (Feature::UopsRetired, 100.0 + i as f64),
                    (Feature::LlcMiss, 3.0),
                ])
            })
            .collect();
        let run = |order: [EventId; 2]| {
            let mut pmu = Pmu::new(Arc::clone(&cat), 0xabcd);
            for (slot, &event) in order.iter().enumerate() {
                pmu.program(
                    slot,
                    CounterConfig {
                        event,
                        filter: OriginFilter::Any,
                    },
                )
                .unwrap();
            }
            for d in &deltas {
                pmu.apply(d, Origin::Host);
            }
            let mut by_event = std::collections::BTreeMap::new();
            for slot in 0..2 {
                by_event.insert(pmu.programmed_event(slot).unwrap(), pmu.rdpmc(slot).unwrap());
            }
            by_event
        };
        assert_eq!(run([uops, refills]), run([refills, uops]));
    }

    #[test]
    fn bad_slot_and_unprogrammed_errors() {
        let (mut pmu, ev) = pmu();
        assert_eq!(
            pmu.program(
                9,
                CounterConfig {
                    event: ev,
                    filter: OriginFilter::Any
                }
            ),
            Err(PmuError::BadSlot(9))
        );
        assert_eq!(pmu.rdpmc(1), Err(PmuError::Unprogrammed(1)));
        assert_eq!(pmu.rdpmc(10), Err(PmuError::BadSlot(10)));
    }

    #[test]
    fn unknown_event_rejected() {
        let (mut pmu, _) = pmu();
        let bogus = EventId(999_999);
        assert_eq!(
            pmu.program(
                0,
                CounterConfig {
                    event: bogus,
                    filter: OriginFilter::Any
                }
            ),
            Err(PmuError::UnknownEvent(bogus))
        );
    }

    #[test]
    fn guest_filter_excludes_host_activity() {
        let (mut pmu, ev) = pmu();
        pmu.program(
            0,
            CounterConfig {
                event: ev,
                filter: OriginFilter::GuestOnly(7),
            },
        )
        .unwrap();
        let delta = ActivityVector::from_pairs(&[(Feature::UopsRetired, 100.0)]);
        pmu.apply(&delta, Origin::Host);
        pmu.apply(&delta, Origin::Guest(3));
        assert_eq!(pmu.rdpmc(0).unwrap(), 0);
        pmu.apply(&delta, Origin::Guest(7));
        assert!(pmu.rdpmc(0).unwrap() > 0);
    }

    #[test]
    fn guest_invisible_events_ignore_guest_activity() {
        let cat = EventCatalog::shared(MicroArch::AmdEpyc7252);
        // Find a software event (never guest visible) with a response.
        let sw = cat
            .events()
            .iter()
            .find(|e| !e.guest_visible && !e.response.is_empty())
            .unwrap();
        let feature = sw.response[0].0;
        let id = sw.id;
        let mut pmu = Pmu::new(cat, 0xbead);
        pmu.program(
            0,
            CounterConfig {
                event: id,
                filter: OriginFilter::Any,
            },
        )
        .unwrap();
        let delta = ActivityVector::from_pairs(&[(feature, 500.0)]);
        pmu.apply(&delta, Origin::Guest(1));
        assert_eq!(pmu.rdpmc(0).unwrap(), 0);
        pmu.apply(&delta, Origin::Host);
        assert!(pmu.rdpmc(0).unwrap() > 0);
    }

    #[test]
    fn reset_value_zeroes_without_reprogram() {
        let (mut pmu, ev) = pmu();
        pmu.program(
            2,
            CounterConfig {
                event: ev,
                filter: OriginFilter::Any,
            },
        )
        .unwrap();
        pmu.apply(
            &ActivityVector::from_pairs(&[(Feature::UopsRetired, 50.0)]),
            Origin::Host,
        );
        assert!(pmu.rdpmc(2).unwrap() > 0);
        pmu.reset_value(2);
        assert_eq!(pmu.rdpmc(2).unwrap(), 0);
        assert_eq!(pmu.programmed_event(2), Some(ev));
    }

    #[test]
    fn clear_frees_slot() {
        let (mut pmu, ev) = pmu();
        pmu.program(
            0,
            CounterConfig {
                event: ev,
                filter: OriginFilter::Any,
            },
        )
        .unwrap();
        pmu.clear(0);
        assert_eq!(pmu.rdpmc(0), Err(PmuError::Unprogrammed(0)));
    }

    #[test]
    fn read_group_reports_programmed_slots() {
        // Two identically programmed PMUs: a batched group read on one
        // must match a direct RDPMC on the other (both consume draw 0 of
        // the same per-event noise stream).
        let setup = || {
            let (mut pmu, ev) = pmu();
            pmu.program(
                1,
                CounterConfig {
                    event: ev,
                    filter: OriginFilter::Any,
                },
            )
            .unwrap();
            pmu.apply(
                &ActivityVector::from_pairs(&[(Feature::UopsRetired, 42.0)]),
                Origin::Host,
            );
            pmu
        };
        let group = setup().read_group();
        let direct = setup().rdpmc(1).unwrap();
        assert_eq!(group[0], None);
        assert_eq!(group[1], Some(direct));
        assert_eq!(group[2], None);
    }

    #[test]
    fn fail_closed_zeroes_guest_visible_reads_without_draws() {
        let (mut pmu, ev) = pmu();
        pmu.program(
            0,
            CounterConfig {
                event: ev,
                filter: OriginFilter::Any,
            },
        )
        .unwrap();
        pmu.apply(
            &ActivityVector::from_pairs(&[(Feature::UopsRetired, 1000.0)]),
            Origin::Host,
        );
        let twin = pmu.clone();
        pmu.set_fail_closed(true);
        assert!(pmu.fail_closed());
        assert_eq!(pmu.rdpmc(0).unwrap(), 0, "latched read is zero");
        assert_eq!(pmu.read_group()[0], Some(0));
        // No draws were consumed while latched: after release, the first
        // real read matches draw 0 on the untouched twin.
        pmu.set_fail_closed(false);
        assert_eq!(pmu.rdpmc(0).unwrap(), twin.rdpmc(0).unwrap());
    }

    #[test]
    fn measurement_noise_is_bounded() {
        let (mut pmu, ev) = pmu();
        pmu.program(
            0,
            CounterConfig {
                event: ev,
                filter: OriginFilter::Any,
            },
        )
        .unwrap();
        for _ in 0..100 {
            pmu.apply(
                &ActivityVector::from_pairs(&[(Feature::UopsRetired, 1000.0)]),
                Origin::Host,
            );
        }
        let v = pmu.rdpmc(0).unwrap() as f64;
        // 100 applications of 1000 with ~1% relative noise: within 2%.
        assert!((v - 100_000.0).abs() < 2_000.0, "{v}");
    }
}
