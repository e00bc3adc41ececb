//! Performance monitoring unit: four programmable counters per core.
//!
//! Counters accumulate raw activity vectors; the event's linear response
//! (one dense [`crate::ResponseMatrix`] row), a measurement-noise draw,
//! and RDPMC truncation are applied per *read*. Noise streams are keyed
//! per (event, read index) from the lane's noise base — never from its
//! execution draws — so counter values are independent of slot
//! programming order and execution is independent of which counters are
//! programmed. The counter rows themselves live in [`crate::CoreBatch`];
//! a [`crate::Core`] is one lane of it.

use crate::activity::Origin;
use crate::events::EventId;
use serde::{Deserialize, Serialize};
use std::fmt;

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

/// The counter slots a perf-style recorder programs and reads: one slot
/// configuration shared by `n_lanes` lockstep lanes, each with its own
/// counter values. A [`crate::Core`] is a one-lane bank; a
/// [`crate::CoreBatch`] is an n-lane bank.
pub trait CounterBank {
    /// Number of lanes.
    fn n_lanes(&self) -> usize;
    /// A lane's measurement-noise base.
    fn noise_base(&self, lane: usize) -> u64;
    /// Whether `event` is in the bank's catalog.
    fn has_event(&self, event: EventId) -> bool;
    /// Programs a slot on every lane, zeroing its values.
    ///
    /// # Errors
    ///
    /// Returns [`PmuError::BadSlot`] or [`PmuError::UnknownEvent`].
    fn program(&mut self, slot: usize, config: CounterConfig) -> Result<(), PmuError>;
    /// Clears a slot on every lane (out-of-range slots are ignored).
    fn clear_slot(&mut self, slot: usize);
    /// The event programmed on a slot, if any.
    fn programmed_event(&self, slot: usize) -> Option<EventId>;
    /// Reads a lane's programmed counter (`RDPMC`), consuming one draw
    /// of its measurement-noise stream.
    ///
    /// # Errors
    ///
    /// Returns [`PmuError::Unprogrammed`] or [`PmuError::BadSlot`].
    fn rdpmc(&mut self, lane: usize, slot: usize) -> Result<u64, PmuError>;
    /// Zeroes a lane's counter value without reprogramming the slot.
    fn reset_value(&mut self, lane: usize, slot: usize);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{ActivityVector, Feature};
    use crate::arch::MicroArch;
    use crate::core::tests::{feed, program, quiet_core};
    use crate::events::named;
    use crate::Core;

    fn core() -> (Core, EventId) {
        let core = quiet_core(MicroArch::AmdEpyc7252, 0xbead);
        let ev = core.catalog().lookup(named::RETIRED_UOPS).unwrap();
        (core, ev)
    }

    fn uops(n: f64) -> ActivityVector {
        ActivityVector::from_pairs(&[(Feature::UopsRetired, n)])
    }

    #[test]
    fn program_and_read() {
        let (mut core, ev) = core();
        program(&mut core, ev);
        assert_eq!(core.rdpmc(0, 0).unwrap(), 0);
        feed(&mut core, &uops(1000.0), Origin::Host);
        let v = core.rdpmc(0, 0).unwrap();
        assert!((900..1100).contains(&v), "{v}");
    }

    #[test]
    fn counts_are_independent_of_slot_order() {
        // Programming the same pair of events in either slot order must
        // produce identical values: noise streams are keyed per event,
        // not per slot or per shared-RNG consumption order.
        let cat = crate::EventCatalog::shared(MicroArch::AmdEpyc7252);
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
            let mut core = quiet_core(MicroArch::AmdEpyc7252, 0xabcd);
            for (slot, &event) in order.iter().enumerate() {
                core.program(
                    slot,
                    CounterConfig {
                        event,
                        filter: OriginFilter::Any,
                    },
                )
                .unwrap();
            }
            for d in &deltas {
                feed(&mut core, d, Origin::Host);
            }
            let mut by_event = std::collections::BTreeMap::new();
            for slot in 0..2 {
                by_event.insert(
                    core.programmed_event(slot).unwrap(),
                    core.rdpmc(0, slot).unwrap(),
                );
            }
            by_event
        };
        assert_eq!(run([uops, refills]), run([refills, uops]));
    }

    #[test]
    fn bad_slot_and_unprogrammed_errors() {
        let (mut core, ev) = core();
        assert_eq!(
            core.program(
                9,
                CounterConfig {
                    event: ev,
                    filter: OriginFilter::Any
                }
            ),
            Err(PmuError::BadSlot(9))
        );
        assert_eq!(core.rdpmc(0, 1), Err(PmuError::Unprogrammed(1)));
        assert_eq!(core.rdpmc(0, 10), Err(PmuError::BadSlot(10)));
    }

    #[test]
    fn unknown_event_rejected() {
        let (mut core, _) = core();
        let bogus = EventId(999_999);
        assert_eq!(
            core.program(
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
        let (mut core, ev) = core();
        core.program(
            0,
            CounterConfig {
                event: ev,
                filter: OriginFilter::GuestOnly(7),
            },
        )
        .unwrap();
        feed(&mut core, &uops(100.0), Origin::Host);
        feed(&mut core, &uops(100.0), Origin::Guest(3));
        assert_eq!(core.rdpmc(0, 0).unwrap(), 0);
        feed(&mut core, &uops(100.0), Origin::Guest(7));
        assert!(core.rdpmc(0, 0).unwrap() > 0);
    }

    #[test]
    fn guest_invisible_events_ignore_guest_activity() {
        let (mut core, _) = core();
        // Find a software event (never guest visible) with a response.
        let cat = core.catalog();
        let sw = cat
            .events()
            .iter()
            .find(|e| !e.guest_visible && !e.response.is_empty())
            .unwrap();
        program(&mut core, sw.id);
        let delta = ActivityVector::from_pairs(&[(sw.response[0].0, 500.0)]);
        feed(&mut core, &delta, Origin::Guest(1));
        assert_eq!(core.rdpmc(0, 0).unwrap(), 0);
        feed(&mut core, &delta, Origin::Host);
        assert!(core.rdpmc(0, 0).unwrap() > 0);
    }

    #[test]
    fn reset_value_zeroes_without_reprogram() {
        let (mut core, ev) = core();
        core.program(
            2,
            CounterConfig {
                event: ev,
                filter: OriginFilter::Any,
            },
        )
        .unwrap();
        feed(&mut core, &uops(50.0), Origin::Host);
        assert!(core.rdpmc(0, 2).unwrap() > 0);
        core.reset_value(0, 2);
        assert_eq!(core.rdpmc(0, 2).unwrap(), 0);
        assert_eq!(core.programmed_event(2), Some(ev));
    }

    #[test]
    fn clear_frees_slot() {
        let (mut core, ev) = core();
        program(&mut core, ev);
        core.clear_slot(0);
        assert_eq!(core.rdpmc(0, 0), Err(PmuError::Unprogrammed(0)));
    }

    #[test]
    fn fail_closed_zeroes_guest_visible_reads_without_draws() {
        let (mut core, ev) = core();
        program(&mut core, ev);
        feed(&mut core, &uops(1000.0), Origin::Host);
        let mut twin = core.clone();
        core.set_fail_closed(true);
        assert!(core.fail_closed());
        assert_eq!(core.rdpmc(0, 0).unwrap(), 0, "latched read is zero");
        // No draws were consumed while latched: after release, the first
        // real read matches draw 0 on the untouched twin.
        core.set_fail_closed(false);
        assert_eq!(core.rdpmc(0, 0).unwrap(), twin.rdpmc(0, 0).unwrap());
    }

    #[test]
    fn measurement_noise_is_bounded() {
        // Each read scales the true count by one gaussian draw of relative
        // deviation `noise_rel`, which the catalog keeps below 2%: over
        // many reads of 100 applications of 1000, the rms relative error
        // stays within 2% and the mean within 0.5%.
        let (mut core, ev) = core();
        program(&mut core, ev);
        let reads = 64;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..reads {
            core.reset_value(0, 0);
            for _ in 0..100 {
                feed(&mut core, &uops(1000.0), Origin::Host);
            }
            let rel = core.rdpmc(0, 0).unwrap() as f64 / 100_000.0 - 1.0;
            sum += rel;
            sq += rel * rel;
        }
        let (mean, rms) = (sum / f64::from(reads), (sq / f64::from(reads)).sqrt());
        assert!(rms < 0.02, "rms relative error {rms}");
        assert!(mean.abs() < 0.005, "mean relative error {mean}");
    }
}
