//! Step 4: gadget filtering — clustering by root cause and extraction of
//! the minimal covering gadget set.

use crate::fuzzer::{EventGadgets, FuzzOutcome};
use crate::gadget::{ConfirmedGadget, Gadget, GadgetCluster};
use aegis_microarch::EventId;
use aegis_obs as obs;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Summary statistics over confirmed gadgets per event (Section VIII-B:
/// "the mean and median value of the gadgets for all events are 892 and
/// 505" on Intel, "617 and 440" on AMD).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GadgetStats {
    /// Mean confirmed gadgets per event.
    pub mean: f64,
    /// Median confirmed gadgets per event.
    pub median: f64,
    /// Event with the most gadgets and its count.
    pub max: Option<(EventId, usize)>,
}

impl GadgetStats {
    /// Computes the stats over a fuzzing outcome.
    pub fn from_events(per_event: &[EventGadgets]) -> Self {
        if per_event.is_empty() {
            return GadgetStats {
                mean: 0.0,
                median: 0.0,
                max: None,
            };
        }
        let mut counts: Vec<usize> = per_event.iter().map(|e| e.confirmed.len()).collect();
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        let max = per_event
            .iter()
            .max_by_key(|e| e.confirmed.len())
            .map(|e| (e.event, e.confirmed.len()));
        counts.sort_unstable();
        let n = counts.len();
        let median = if n % 2 == 1 {
            counts[n / 2] as f64
        } else {
            (counts[n / 2 - 1] + counts[n / 2]) as f64 / 2.0
        };
        GadgetStats { mean, median, max }
    }
}

/// Result of the clustering pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FilterStats {
    /// Confirmed gadgets before clustering.
    pub before: usize,
    /// Representative gadgets after clustering.
    pub after: usize,
}

/// Clusters each event's confirmed gadgets by [`GadgetCluster`], keeping
/// only the strongest representative per cluster; also extracts the
/// highest-effect gadget per event (which stays at index 0). Updates the
/// outcome's filtering wall time.
pub fn cluster_gadgets(outcome: &mut FuzzOutcome) -> FilterStats {
    let span = obs::span("fuzz.filter");
    let mut before = 0;
    let mut after = 0;
    for eg in &mut outcome.per_event {
        before += eg.confirmed.len();
        let mut best: BTreeMap<GadgetCluster, ConfirmedGadget> = BTreeMap::new();
        for g in &eg.confirmed {
            let entry = best.entry(g.cluster).or_insert(*g);
            if g.effect > entry.effect {
                *entry = *g;
            }
        }
        let mut reduced: Vec<ConfirmedGadget> = best.into_values().collect();
        reduced.sort_by(|a, b| b.effect.total_cmp(&a.effect));
        after += reduced.len();
        eg.confirmed = reduced;
    }
    outcome.report.filtering_seconds += span.finish();
    FilterStats { before, after }
}

/// One element of the covering gadget set: a gadget and the vulnerable
/// events it obfuscates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoveringGadget {
    /// The gadget.
    pub gadget: Gadget,
    /// Events whose counters this gadget perturbs.
    pub covers: Vec<EventId>,
}

/// Greedy minimum set cover: the smallest gadget set that perturbs every
/// event that has at least one confirmed gadget.
///
/// This is the optimization of Section VII-C: "the identified gadget sets
/// for various HPC events usually have intersections ... to cover all 137
/// vulnerable HPC events, we only require 43 instruction gadgets."
pub fn covering_set(per_event: &[EventGadgets]) -> Vec<CoveringGadget> {
    // gadget -> events it can obfuscate.
    let mut by_gadget: BTreeMap<Gadget, BTreeSet<EventId>> = BTreeMap::new();
    let mut coverable: BTreeSet<EventId> = BTreeSet::new();
    for eg in per_event {
        if eg.confirmed.is_empty() {
            continue;
        }
        coverable.insert(eg.event);
        for g in &eg.confirmed {
            by_gadget.entry(g.gadget).or_default().insert(eg.event);
        }
    }
    let mut uncovered = coverable;
    let mut cover = Vec::new();
    while !uncovered.is_empty() {
        let (gadget, covered): (Gadget, BTreeSet<EventId>) = by_gadget
            .iter()
            .map(|(g, evs)| (*g, evs.intersection(&uncovered).copied().collect()))
            .max_by_key(|(g, inter): &(Gadget, BTreeSet<EventId>)| {
                (inter.len(), std::cmp::Reverse(*g))
            })
            .expect("uncovered events imply at least one gadget");
        if covered.is_empty() {
            break; // defensive: cannot happen while uncovered ⊆ coverable
        }
        for e in &covered {
            uncovered.remove(e);
        }
        cover.push(CoveringGadget {
            gadget,
            covers: covered.into_iter().collect(),
        });
    }
    cover
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadget::ConfirmedGadget;
    use aegis_isa::{well_known, InstrId, WellKnown};

    fn confirmed(reset: u32, trigger: u32, effect: f64) -> ConfirmedGadget {
        let r = well_known(WellKnown::Clflush);
        let t = well_known(WellKnown::Load64);
        ConfirmedGadget {
            gadget: Gadget::new(InstrId(reset), InstrId(trigger)),
            effect,
            cluster: GadgetCluster::of(&r, &t),
        }
    }

    /// `(event, [(reset, trigger, effect)])` rows of a test fixture.
    type EventRow<'a> = (u32, &'a [(u32, u32, f64)]);

    fn events(data: &[EventRow]) -> Vec<EventGadgets> {
        data.iter()
            .map(|&(ev, gs)| EventGadgets {
                event: EventId(ev),
                confirmed: gs.iter().map(|&(r, t, e)| confirmed(r, t, e)).collect(),
            })
            .collect()
    }

    #[test]
    fn stats_mean_median_max() {
        let evs = events(&[
            (0, &[(1, 2, 1.0), (3, 4, 2.0)]),
            (1, &[(1, 2, 1.0)]),
            (2, &[(1, 2, 1.0), (3, 4, 1.0), (5, 6, 1.0)]),
        ]);
        let s = GadgetStats::from_events(&evs);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.max, Some((EventId(2), 3)));
    }

    #[test]
    fn stats_of_empty_outcome() {
        let s = GadgetStats::from_events(&[]);
        assert_eq!(s.max, None);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn covering_set_prefers_shared_gadgets() {
        // Gadget (1,2) covers all three events; singles cover one each.
        let evs = events(&[
            (0, &[(1, 2, 1.0), (7, 8, 5.0)]),
            (1, &[(1, 2, 1.0), (9, 10, 5.0)]),
            (2, &[(1, 2, 1.0)]),
        ]);
        let cover = covering_set(&evs);
        assert_eq!(cover.len(), 1);
        assert_eq!(cover[0].gadget, Gadget::new(InstrId(1), InstrId(2)));
        assert_eq!(cover[0].covers.len(), 3);
    }

    #[test]
    fn covering_set_handles_disjoint_events() {
        let evs = events(&[(0, &[(1, 2, 1.0)]), (1, &[(3, 4, 1.0)])]);
        let cover = covering_set(&evs);
        assert_eq!(cover.len(), 2);
    }

    #[test]
    fn events_without_gadgets_are_skipped() {
        let evs = events(&[(0, &[]), (1, &[(3, 4, 1.0)])]);
        let cover = covering_set(&evs);
        assert_eq!(cover.len(), 1);
        assert_eq!(cover[0].covers, vec![EventId(1)]);
    }

    #[test]
    fn covering_set_of_empty_input_is_empty() {
        assert!(covering_set(&[]).is_empty());
    }
}
