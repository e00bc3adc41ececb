//! HPC event catalog: thousands of events per processor model, typed and
//! wired to the micro-architectural activity features they respond to.

use crate::activity::{ActivityVector, Feature};
use crate::arch::MicroArch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Identifier of an HPC event within an [`EventCatalog`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct EventId(pub u32);

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{:04}", self.0)
    }
}

/// Perf-subsystem event classes, as categorized in Table II of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EventKind {
    /// Generalized hardware events (H).
    Hardware,
    /// Kernel software events (S) — never reflect sealed guest activity.
    Software,
    /// Hardware cache events (HC).
    HwCache,
    /// Kernel tracepoints (T) — mostly host-kernel-internal.
    Tracepoint,
    /// Raw CPU PMU events (R).
    Raw,
    /// Others (O): breakpoints and similar, never triggered by normal VMs.
    Other,
}

impl EventKind {
    /// All kinds, in Table II column order.
    pub const ALL: [EventKind; 6] = [
        EventKind::Hardware,
        EventKind::Software,
        EventKind::HwCache,
        EventKind::Tracepoint,
        EventKind::Raw,
        EventKind::Other,
    ];

    /// Single-letter tag used in Table II.
    pub fn tag(self) -> &'static str {
        match self {
            EventKind::Hardware => "H",
            EventKind::Software => "S",
            EventKind::HwCache => "HC",
            EventKind::Tracepoint => "T",
            EventKind::Raw => "R",
            EventKind::Other => "O",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Description of one HPC event.
///
/// An event observes a sparse linear function of the core's
/// [`ActivityVector`]; `guest_visible` encodes whether activity *inside* a
/// sealed guest moves the event at all (host software events and most
/// tracepoints cannot observe it — the basis of warm-up profiling).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventDesc {
    /// Identifier within the catalog.
    pub id: EventId,
    /// Perf-style event name, e.g. `DATA_CACHE_REFILLS_FROM_SYSTEM`.
    pub name: String,
    /// Perf event class.
    pub kind: EventKind,
    /// Whether guest-origin activity contributes to the count.
    pub guest_visible: bool,
    /// Sparse response weights over activity features.
    pub response: Vec<(Feature, f64)>,
    /// Relative measurement-noise standard deviation (HPC imprecision).
    pub noise_rel: f64,
}

impl EventDesc {
    /// Noise-free count increment for an activity delta.
    ///
    /// Accumulates canonically: the sparse weights are first collapsed
    /// into a dense feature-indexed row (duplicates added in sparse
    /// order), then dotted with the delta in feature-index order — the
    /// exact arithmetic [`crate::ResponseMatrix`] performs, so the sparse
    /// and dense paths are bit-identical for every input.
    pub fn respond(&self, delta: &ActivityVector) -> f64 {
        let mut row = [0.0f64; Feature::COUNT];
        for &(f, w) in &self.response {
            row[f.index()] += w;
        }
        let mut acc = 0.0;
        for (w, d) in row.iter().zip(&delta.0) {
            acc += w * d;
        }
        acc.max(0.0)
    }

    /// The feature with the largest response weight, if any.
    pub fn dominant_feature(&self) -> Option<Feature> {
        self.response
            .iter()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .map(|&(f, _)| f)
    }
}

/// Per-kind row of the catalog's composition (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KindStats {
    /// Event class.
    pub kind: EventKind,
    /// Number of events of this class.
    pub count: usize,
    /// Number of those that are guest visible.
    pub guest_visible: usize,
}

/// The full HPC event catalog of one processor model.
///
/// Catalogs are deterministic per model; models in the same family share
/// their catalog up to the small number of differing events reported in
/// Table I (the E5-4617 differs from the E5-1650 in 14 events; the two
/// EPYC models are identical).
///
/// # Example
///
/// ```
/// use aegis_microarch::{EventCatalog, MicroArch};
///
/// let cat = EventCatalog::for_arch(MicroArch::AmdEpyc7252);
/// assert_eq!(cat.len(), 1903);
/// assert!(cat.lookup("RETIRED_UOPS").is_some());
/// ```
#[derive(Debug, Clone)]
pub struct EventCatalog {
    arch: MicroArch,
    events: Vec<EventDesc>,
    by_name: HashMap<String, EventId>,
}

/// Headline events used throughout the paper's attacks and case studies.
pub mod named {
    /// Micro-ops retired — the event the paper clips at `B_u = 2e4`.
    pub const RETIRED_UOPS: &str = "RETIRED_UOPS";
    /// Load/store dispatches.
    pub const LS_DISPATCH: &str = "LS_DISPATCH";
    /// Miss-address-buffer allocations.
    pub const MAB_ALLOCATION_BY_PIPE: &str = "MAB_ALLOCATION_BY_PIPE";
    /// LLC refills from DRAM — used in Fig. 3 and the constant-output study.
    pub const DATA_CACHE_REFILLS_FROM_SYSTEM: &str = "DATA_CACHE_REFILLS_FROM_SYSTEM";
    /// L1 hit loads — the Intel event with the most fuzzed gadgets.
    pub const MEM_LOAD_UOPS_RETIRED_L1_HIT: &str = "MEM_LOAD_UOPS_RETIRED:L1_HIT";
    /// SSE instruction retirement — the AMD event with the most gadgets.
    pub const RETIRED_MMX_FP_INSTRUCTIONS_SSE: &str = "RETIRED_MMX_FP_INSTRUCTIONS:SSE_INSTR";
    /// L1D write accesses — the example covering gadget in Section VII-C.
    pub const HW_CACHE_L1D_WRITE: &str = "HW_CACHE_L1D:WRITE";

    /// The four events the paper's attacker monitors simultaneously.
    pub const ATTACK_EVENTS: [&str; 4] = [
        RETIRED_UOPS,
        LS_DISPATCH,
        MAB_ALLOCATION_BY_PIPE,
        DATA_CACHE_REFILLS_FROM_SYSTEM,
    ];
}

impl EventCatalog {
    /// Builds the deterministic catalog for a processor model.
    pub fn for_arch(arch: MicroArch) -> Self {
        let reference = arch.family_reference();
        let mut events = generate_family_catalog(reference);
        if arch != reference {
            apply_model_divergence(arch, &mut events);
        }
        let by_name = events
            .iter()
            .map(|e| (e.name.clone(), e.id))
            .collect::<HashMap<_, _>>();
        EventCatalog {
            arch,
            events,
            by_name,
        }
    }

    /// The process-wide memoized catalog for a processor model.
    ///
    /// Catalogs are deterministic per model, so every construction site
    /// (cores, hosts, experiment setup) can share one immutable instance;
    /// the first caller pays the build and bumps the
    /// `microarch.catalog_build` counter, proving the 6166-event Intel
    /// catalog is built once per process rather than once per core.
    pub fn shared(arch: MicroArch) -> Arc<EventCatalog> {
        static SHARED: [OnceLock<Arc<EventCatalog>>; 4] = [
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
        ];
        Arc::clone(SHARED[crate::response::arch_slot(arch)].get_or_init(|| {
            aegis_obs::counter_add("microarch.catalog_build", 1.0);
            Arc::new(EventCatalog::for_arch(arch))
        }))
    }

    /// The processor model this catalog belongs to.
    pub fn arch(&self) -> MicroArch {
        self.arch
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the catalog is empty (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All event descriptors in id order.
    pub fn events(&self) -> &[EventDesc] {
        &self.events
    }

    /// Looks up an event descriptor by id.
    pub fn get(&self, id: EventId) -> Option<&EventDesc> {
        self.events.get(id.0 as usize)
    }

    /// Resolves an event name to its id.
    pub fn lookup(&self, name: &str) -> Option<EventId> {
        self.by_name.get(name).copied()
    }

    /// Resolves the paper's four headline attack events.
    ///
    /// # Panics
    ///
    /// Panics if the catalog is missing a named event, which cannot happen
    /// for catalogs produced by [`EventCatalog::for_arch`].
    pub fn attack_events(&self) -> [EventId; 4] {
        named::ATTACK_EVENTS.map(|n| {
            self.lookup(n)
                .unwrap_or_else(|| panic!("named event {n} missing from catalog"))
        })
    }

    /// Table II composition: per-kind counts and guest-visible counts.
    pub fn kind_stats(&self) -> Vec<KindStats> {
        EventKind::ALL
            .iter()
            .map(|&kind| {
                let of_kind = self.events.iter().filter(|e| e.kind == kind);
                let (count, visible) = of_kind.fold((0, 0), |(c, v), e| {
                    (c + 1, v + usize::from(e.guest_visible))
                });
                KindStats {
                    kind,
                    count,
                    guest_visible: visible,
                }
            })
            .collect()
    }

    /// Ids of all guest-visible events.
    pub fn guest_visible_ids(&self) -> Vec<EventId> {
        self.events
            .iter()
            .filter(|e| e.guest_visible)
            .map(|e| e.id)
            .collect()
    }
}

/// Per-kind composition plan: `(kind, fraction, guest_visible_fraction)`.
/// Fractions reproduce Table II; `Other` absorbs rounding remainder.
fn kind_plan(arch: MicroArch) -> [(EventKind, f64, f64); 6] {
    match arch.vendor() {
        aegis_isa::Vendor::Intel => [
            (EventKind::Hardware, 0.0039, 1.0),
            (EventKind::Software, 0.0031, 0.0),
            (EventKind::HwCache, 0.0100, 1.0),
            (EventKind::Tracepoint, 0.3615, 0.0798),
            (EventKind::Raw, 0.0775, 0.9937),
            (EventKind::Other, f64::NAN, 0.0), // remainder
        ],
        aegis_isa::Vendor::Amd => [
            (EventKind::Hardware, 0.0126, 1.0),
            (EventKind::Software, 0.0100, 0.0),
            (EventKind::HwCache, 0.0326, 1.0),
            (EventKind::Tracepoint, 0.8717, 0.0157),
            (EventKind::Raw, 0.0520, 0.9183),
            (EventKind::Other, f64::NAN, 0.0), // remainder
        ],
    }
}

/// Named hardware events with hand-wired responses, inserted at the head of
/// each kind's block so they exist on every model.
fn named_hardware_events() -> Vec<(&'static str, Vec<(Feature, f64)>)> {
    vec![
        (named::RETIRED_UOPS, vec![(Feature::UopsRetired, 1.0)]),
        ("RETIRED_INSTRUCTIONS", vec![(Feature::InstrRetired, 1.0)]),
        (
            named::LS_DISPATCH,
            vec![(Feature::Loads, 1.0), (Feature::Stores, 1.0)],
        ),
        (
            named::MAB_ALLOCATION_BY_PIPE,
            vec![(Feature::L1dMiss, 0.9), (Feature::LlcMiss, 0.5)],
        ),
        (
            named::RETIRED_MMX_FP_INSTRUCTIONS_SSE,
            vec![(Feature::SimdOps, 1.0)],
        ),
        (
            "RETIRED_BRANCH_INSTRUCTIONS",
            vec![(Feature::Branches, 1.0)],
        ),
        (
            "RETIRED_BRANCH_MISPREDICTED",
            vec![(Feature::BranchMisses, 1.0)],
        ),
        ("CYCLES_NOT_IN_HALT", vec![(Feature::Cycles, 1.0)]),
        ("STALLED_CYCLES_ANY", vec![(Feature::StallCycles, 1.0)]),
        ("RETIRED_X87_FP_OPS", vec![(Feature::X87Ops, 1.0)]),
        (
            "RETIRED_SERIALIZING_OPS",
            vec![(Feature::Serializations, 1.0)],
        ),
    ]
}

/// Named cache events with hand-wired responses.
fn named_cache_events() -> Vec<(&'static str, Vec<(Feature, f64)>)> {
    vec![
        (
            named::DATA_CACHE_REFILLS_FROM_SYSTEM,
            vec![(Feature::LlcMiss, 1.0)],
        ),
        (
            named::MEM_LOAD_UOPS_RETIRED_L1_HIT,
            vec![(Feature::L1dHit, 1.0)],
        ),
        ("HW_CACHE_L1D:READ", vec![(Feature::Loads, 1.0)]),
        (named::HW_CACHE_L1D_WRITE, vec![(Feature::Stores, 1.0)]),
        ("HW_CACHE_L1D:MISS", vec![(Feature::L1dMiss, 1.0)]),
        ("L2_CACHE_MISSES", vec![(Feature::L2Miss, 1.0)]),
        ("DTLB_MISSES", vec![(Feature::DtlbMiss, 1.0)]),
        ("HW_CACHE_FLUSHES", vec![(Feature::CacheFlushes, 1.0)]),
    ]
}

fn generate_family_catalog(reference: MicroArch) -> Vec<EventDesc> {
    let total = reference.event_count();
    let plan = kind_plan(reference);
    // Resolve per-kind counts; Other takes the remainder.
    let mut counts = [0usize; 6];
    let mut assigned = 0usize;
    for (i, &(_, frac, _)) in plan.iter().enumerate() {
        if frac.is_nan() {
            continue;
        }
        counts[i] = (total as f64 * frac).round() as usize;
        assigned += counts[i];
    }
    counts[5] = total - assigned;

    let mut rng = StdRng::seed_from_u64(reference.family_seed());
    let mut events = Vec::with_capacity(total);
    for (i, &(kind, _, visible_frac)) in plan.iter().enumerate() {
        let count = counts[i];
        let visible_target = (count as f64 * visible_frac).round() as usize;
        let mut emitted_visible = 0usize;
        for k in 0..count {
            let id = EventId(events.len() as u32);
            // Deterministically spread visibility across the block.
            let visible = emitted_visible < visible_target
                && (visible_frac >= 1.0
                    || (k as f64 + 0.5) * visible_frac >= emitted_visible as f64);
            if visible {
                emitted_visible += 1;
            }
            events.push(generate_event(id, kind, k, visible, &mut rng));
        }
    }
    events
}

fn generate_event(
    id: EventId,
    kind: EventKind,
    ordinal: usize,
    guest_visible: bool,
    rng: &mut StdRng,
) -> EventDesc {
    // Named events occupy the head of the Hardware and HwCache blocks.
    let named = match kind {
        EventKind::Hardware => named_hardware_events().into_iter().nth(ordinal),
        EventKind::HwCache => named_cache_events().into_iter().nth(ordinal),
        _ => None,
    };
    let noise_rel = rng.gen_range(0.002..0.02);
    if let Some((name, response)) = named {
        return EventDesc {
            id,
            name: name.to_string(),
            kind,
            guest_visible,
            response,
            noise_rel,
        };
    }
    let (name, response) = match kind {
        EventKind::Hardware => (
            format!("HW_EVENT_{ordinal:03}"),
            random_response(&HARDWARE_FEATURES, rng),
        ),
        EventKind::HwCache => (
            format!("HW_CACHE_GEN_{ordinal:03}"),
            random_response(&CACHE_FEATURES, rng),
        ),
        EventKind::Raw => (
            format!("RAW_PMC_{ordinal:04X}"),
            random_response(&HARDWARE_FEATURES, rng),
        ),
        EventKind::Tracepoint => (
            format!("TP:SYS_{ordinal:04}"),
            random_response(&KERNEL_FEATURES, rng),
        ),
        EventKind::Software => (
            format!("SW:{}_{ordinal:03}", SW_NAMES[ordinal % SW_NAMES.len()]),
            random_response(&KERNEL_FEATURES, rng),
        ),
        EventKind::Other => (format!("OTHER_BP_{ordinal:04}"), Vec::new()),
    };
    EventDesc {
        id,
        name,
        kind,
        guest_visible,
        response,
        noise_rel,
    }
}

const SW_NAMES: [&str; 6] = [
    "TASK_CLOCK",
    "CONTEXT_SWITCHES",
    "CPU_MIGRATIONS",
    "PAGE_FAULTS_MIN",
    "PAGE_FAULTS_MAJ",
    "ALIGNMENT_FAULTS",
];

const HARDWARE_FEATURES: [Feature; 16] = [
    Feature::UopsRetired,
    Feature::InstrRetired,
    Feature::Loads,
    Feature::Stores,
    Feature::Branches,
    Feature::BranchMisses,
    Feature::FpOps,
    Feature::SimdOps,
    Feature::X87Ops,
    Feature::CryptoOps,
    Feature::BitManipOps,
    Feature::StallCycles,
    Feature::Cycles,
    Feature::L1dAccess,
    Feature::Serializations,
    Feature::CacheFlushes,
];

const CACHE_FEATURES: [Feature; 9] = [
    Feature::L1dAccess,
    Feature::L1dHit,
    Feature::L1dMiss,
    Feature::L2Miss,
    Feature::LlcMiss,
    Feature::DtlbMiss,
    Feature::Loads,
    Feature::Stores,
    Feature::CacheFlushes,
];

const KERNEL_FEATURES: [Feature; 3] = [Feature::Syscalls, Feature::PageFaults, Feature::Interrupts];

fn random_response(pool: &[Feature], rng: &mut StdRng) -> Vec<(Feature, f64)> {
    let dominant = pool[rng.gen_range(0..pool.len())];
    let mut response = vec![(dominant, rng.gen_range(0.6..1.4))];
    for _ in 0..rng.gen_range(0..3u32) {
        let minor = pool[rng.gen_range(0..pool.len())];
        if minor != dominant {
            response.push((minor, rng.gen_range(0.05..0.3)));
        }
    }
    response
}

/// The E5-4617 shares the E5-1650 catalog except for 14 events: 8 replaced
/// raw events and 6 additional ones (6166 + 6 = 6172; Table I).
fn apply_model_divergence(arch: MicroArch, events: &mut Vec<EventDesc>) {
    if arch != MicroArch::IntelXeonE5_4617 {
        return;
    }
    let mut rng = StdRng::seed_from_u64(arch.family_seed() ^ 0x4617);
    // Replace 8 raw events spread through the Raw block.
    let raw_ids: Vec<EventId> = events
        .iter()
        .filter(|e| e.kind == EventKind::Raw)
        .map(|e| e.id)
        .collect();
    for (n, chunk) in raw_ids.chunks(raw_ids.len() / 8).take(8).enumerate() {
        let id = chunk[0];
        let e = &mut events[id.0 as usize];
        e.name = format!("RAW_PMC_E54617_{n:02}");
        e.response = random_response(&HARDWARE_FEATURES, &mut rng);
    }
    // Append 6 model-specific raw events.
    for n in 0..6 {
        let id = EventId(events.len() as u32);
        events.push(EventDesc {
            id,
            name: format!("RAW_PMC_E54617_EXTRA_{n:02}"),
            kind: EventKind::Raw,
            guest_visible: true,
            response: random_response(&HARDWARE_FEATURES, &mut rng),
            noise_rel: rng.gen_range(0.002..0.02),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_sizes_match_table1() {
        for arch in MicroArch::ALL {
            let cat = EventCatalog::for_arch(arch);
            assert_eq!(cat.len(), arch.event_count(), "{arch}");
        }
    }

    #[test]
    fn shared_catalogs_build_once_per_process() {
        let before = aegis_obs::snapshot();
        for arch in MicroArch::ALL {
            let a = EventCatalog::shared(arch);
            let b = EventCatalog::shared(arch);
            assert!(Arc::ptr_eq(&a, &b), "{arch} catalog not memoized");
            assert_eq!(a.arch(), arch);
            assert_eq!(a.len(), arch.event_count());
        }
        // After the sweep above every model is initialized, so further
        // lookups — from this test or any concurrently running one — must
        // never rebuild: the build counter freezes for the process.
        let mid = aegis_obs::snapshot();
        for arch in MicroArch::ALL {
            let _ = EventCatalog::shared(arch);
            let _ = crate::ResponseMatrix::shared(arch);
        }
        let after = aegis_obs::snapshot();
        assert_eq!(
            after.counter("microarch.catalog_build"),
            mid.counter("microarch.catalog_build"),
            "catalog rebuilt despite memoization"
        );
        let built =
            mid.counter("microarch.catalog_build") - before.counter("microarch.catalog_build");
        assert!(built <= 4.0, "more builds than models: {built}");
    }

    #[test]
    fn catalogs_are_deterministic() {
        let a = EventCatalog::for_arch(MicroArch::AmdEpyc7252);
        let b = EventCatalog::for_arch(MicroArch::AmdEpyc7252);
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn epyc_models_share_catalog() {
        let a = EventCatalog::for_arch(MicroArch::AmdEpyc7252);
        let b = EventCatalog::for_arch(MicroArch::AmdEpyc7313P);
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn e5_models_differ_in_14_events() {
        let a = EventCatalog::for_arch(MicroArch::IntelXeonE5_1650);
        let b = EventCatalog::for_arch(MicroArch::IntelXeonE5_4617);
        let replaced = a
            .events()
            .iter()
            .zip(b.events())
            .filter(|(x, y)| x.name != y.name)
            .count();
        let added = b.len() - a.len();
        assert_eq!(replaced + added, 14);
    }

    #[test]
    fn headline_events_exist_on_both_vendors() {
        for arch in [MicroArch::IntelXeonE5_1650, MicroArch::AmdEpyc7252] {
            let cat = EventCatalog::for_arch(arch);
            for name in named::ATTACK_EVENTS {
                assert!(cat.lookup(name).is_some(), "{name} on {arch}");
            }
            assert!(cat.lookup(named::MEM_LOAD_UOPS_RETIRED_L1_HIT).is_some());
            assert!(cat.lookup(named::HW_CACHE_L1D_WRITE).is_some());
        }
    }

    #[test]
    fn kind_distribution_matches_table2_amd() {
        let cat = EventCatalog::for_arch(MicroArch::AmdEpyc7252);
        let stats = cat.kind_stats();
        let pct = |k: EventKind| {
            stats.iter().find(|s| s.kind == k).unwrap().count as f64 / cat.len() as f64 * 100.0
        };
        assert!((pct(EventKind::Tracepoint) - 87.17).abs() < 0.2);
        assert!((pct(EventKind::Hardware) - 1.26).abs() < 0.2);
        assert!((pct(EventKind::HwCache) - 3.26).abs() < 0.2);
        assert!((pct(EventKind::Raw) - 5.20).abs() < 0.2);
    }

    #[test]
    fn visibility_matches_table2_brackets() {
        let cat = EventCatalog::for_arch(MicroArch::IntelXeonE5_1650);
        for s in cat.kind_stats() {
            let rate = if s.count == 0 {
                0.0
            } else {
                s.guest_visible as f64 / s.count as f64 * 100.0
            };
            match s.kind {
                EventKind::Hardware | EventKind::HwCache => assert!((rate - 100.0).abs() < 1e-9),
                EventKind::Software | EventKind::Other => assert_eq!(rate, 0.0),
                EventKind::Tracepoint => assert!((rate - 7.98).abs() < 0.3, "T rate {rate}"),
                EventKind::Raw => assert!((rate - 99.37).abs() < 0.5, "R rate {rate}"),
            }
        }
    }

    #[test]
    fn respond_is_linear_and_clamped() {
        let e = EventDesc {
            id: EventId(0),
            name: "X".into(),
            kind: EventKind::Hardware,
            guest_visible: true,
            response: vec![(Feature::Loads, 2.0)],
            noise_rel: 0.0,
        };
        let d = ActivityVector::from_pairs(&[(Feature::Loads, 3.0)]);
        assert_eq!(e.respond(&d), 6.0);
        assert_eq!(e.respond(&ActivityVector::ZERO), 0.0);
    }

    #[test]
    fn dominant_feature_picks_largest_weight() {
        let e = EventDesc {
            id: EventId(0),
            name: "X".into(),
            kind: EventKind::Hardware,
            guest_visible: true,
            response: vec![(Feature::Loads, 0.2), (Feature::Stores, 0.9)],
            noise_rel: 0.0,
        };
        assert_eq!(e.dominant_feature(), Some(Feature::Stores));
    }

    #[test]
    fn other_events_are_inert() {
        let cat = EventCatalog::for_arch(MicroArch::AmdEpyc7252);
        for e in cat.events().iter().filter(|e| e.kind == EventKind::Other) {
            assert!(e.response.is_empty());
            assert!(!e.guest_visible);
        }
    }

    #[test]
    fn guest_visible_ids_consistent_with_stats() {
        let cat = EventCatalog::for_arch(MicroArch::IntelXeonE5_1650);
        let total: usize = cat.kind_stats().iter().map(|s| s.guest_visible).sum();
        assert_eq!(cat.guest_visible_ids().len(), total);
        // Intel visible events land near the 738 the paper keeps after
        // warm-up profiling for the WFA case study.
        assert!(
            (700..800).contains(&total),
            "intel visible events = {total}"
        );
    }

    #[test]
    fn event_names_are_unique() {
        for arch in [MicroArch::IntelXeonE5_4617, MicroArch::AmdEpyc7252] {
            let cat = EventCatalog::for_arch(arch);
            let mut names: Vec<_> = cat.events().iter().map(|e| e.name.as_str()).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(names.len(), before, "{arch}");
        }
    }
}
