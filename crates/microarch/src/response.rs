//! The dense measurement kernel: a flat `[n_events × Feature::COUNT]`
//! response matrix derived from the sparse [`EventCatalog`], per-event
//! derived noise streams, and the counter-read primitive shared by the
//! live counters of [`crate::CoreBatch`] and offline trace evaluation.
//!
//! The sparse `EventDesc::response` vectors remain the single source of
//! truth; the matrix is derived state, rebuilt deterministically from the
//! catalog and proven equivalent by a property test. Evaluating one
//! activity delta against N events is then a matvec over contiguous rows
//! instead of N pointer-chasing sparse walks — the difference between a
//! per-event interpreter and a kernel when the fuzzer sweeps thousands of
//! events × hundreds of gadgets × 10 reps.

use crate::activity::{ActivityVector, Feature};
use crate::arch::MicroArch;
use crate::events::{EventCatalog, EventId};
use crate::rand_util::gauss_from_bits;
use aegis_par::derive_seed;
use std::sync::{Arc, OnceLock};

// The support bitmask packs one bit per feature into a u32.
const _: () = assert!(
    Feature::COUNT <= 32,
    "support mask holds one bit per feature"
);

/// Stream tag for per-(event, draw) measurement-noise seeds. XORed with
/// the event id so every event owns an independent noise stream.
const STREAM_NOISE: u64 = 0x4e01_5e00;

/// Stream tag deriving a core's noise base from its construction seed.
const STREAM_NOISE_BASE: u64 = 0x4e01_5e01;

/// Derives the per-core noise base from the core's construction seed.
///
/// Measurement noise is keyed by `(noise base, event, draw index)` rather
/// than drawn from the core's execution RNG, so core execution is
/// independent of which counters happen to be programmed — the property
/// that lets one recorded activity trace be evaluated against many events
/// with bit-identical results.
pub fn noise_base_for_seed(seed: u64) -> u64 {
    derive_seed(seed, STREAM_NOISE_BASE, 0)
}

/// One measurement-noise draw: the `draw`-th gaussian of the event's
/// stream under `noise_base`. Deterministic and independent of slot
/// programming order.
///
/// The derived seed is already a full SplitMix64 mix, so it feeds the
/// inverse-CDF gaussian directly — no generator construction on the
/// per-read hot path.
pub fn measurement_noise(noise_base: u64, event: EventId, draw: u64) -> f64 {
    gauss_from_bits(derive_seed(
        noise_base,
        STREAM_NOISE ^ u64::from(event.0),
        draw,
    ))
}

/// Dense, cache-friendly event-response matrix: row `e` holds event `e`'s
/// response weights over all [`Feature::COUNT`] features in feature-index
/// order, with duplicate sparse entries collapsed by addition in sparse
/// order — exactly the canonical accumulation `EventDesc::respond` uses,
/// so the two paths are bit-identical.
#[derive(Debug, Clone)]
pub struct ResponseMatrix {
    arch: MicroArch,
    n_events: usize,
    /// Row-major `n_events × Feature::COUNT` weights.
    weights: Vec<f64>,
    /// Per-event relative noise standard deviation.
    noise_rel: Vec<f64>,
    /// Per-event guest visibility.
    guest_visible: Vec<bool>,
    /// Per-event feature-support bitmask (bit `i` set iff the row has a
    /// nonzero weight for feature index `i`).
    support: Vec<u32>,
}

impl ResponseMatrix {
    /// Builds the dense matrix from a catalog (derived state only).
    pub fn from_catalog(catalog: &EventCatalog) -> Self {
        let n = catalog.len();
        let mut weights = vec![0.0f64; n * Feature::COUNT];
        let mut noise_rel = Vec::with_capacity(n);
        let mut guest_visible = Vec::with_capacity(n);
        let mut support = Vec::with_capacity(n);
        for (e, desc) in catalog.events().iter().enumerate() {
            let row = &mut weights[e * Feature::COUNT..(e + 1) * Feature::COUNT];
            for &(f, w) in &desc.response {
                row[f.index()] += w;
            }
            noise_rel.push(desc.noise_rel);
            guest_visible.push(desc.guest_visible);
            support.push(
                row.iter()
                    .enumerate()
                    .filter(|(_, &w)| w != 0.0)
                    .fold(0u32, |m, (i, _)| m | 1 << i),
            );
        }
        ResponseMatrix {
            arch: catalog.arch(),
            n_events: n,
            weights,
            noise_rel,
            guest_visible,
            support,
        }
    }

    /// The process-wide memoized matrix for a processor model, built once
    /// per process from the shared catalog.
    pub fn shared(arch: MicroArch) -> Arc<ResponseMatrix> {
        static SHARED: [OnceLock<Arc<ResponseMatrix>>; 4] = [
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
        ];
        Arc::clone(
            SHARED[arch_slot(arch)].get_or_init(|| {
                Arc::new(ResponseMatrix::from_catalog(&EventCatalog::shared(arch)))
            }),
        )
    }

    /// The processor model the matrix was derived for.
    pub fn arch(&self) -> MicroArch {
        self.arch
    }

    /// Number of event rows.
    pub fn n_events(&self) -> usize {
        self.n_events
    }

    /// The dense weight row of one event.
    ///
    /// # Panics
    ///
    /// Panics if the event id is outside the catalog (the PMU validates
    /// ids at programming time).
    pub fn row(&self, event: EventId) -> &[f64] {
        let e = event.0 as usize;
        &self.weights[e * Feature::COUNT..(e + 1) * Feature::COUNT]
    }

    /// Per-event relative noise standard deviation.
    pub fn noise_rel(&self, event: EventId) -> f64 {
        self.noise_rel[event.0 as usize]
    }

    /// Whether guest-origin activity moves the event.
    pub fn guest_visible(&self, event: EventId) -> bool {
        self.guest_visible[event.0 as usize]
    }

    /// The event's feature-support bitmask: bit `i` is set iff the dense
    /// row has a nonzero weight for feature index `i`. An activity vector
    /// that is zero on every supported feature produces a response of
    /// exactly `0.0` (every dot-product term is `±0.0`), which is the
    /// algebraic fact the fuzzer's disjoint-support fast path relies on.
    pub fn support(&self, event: EventId) -> u32 {
        self.support[event.0 as usize]
    }

    /// Noise-free count increment of one event for an activity delta —
    /// bit-identical to `EventDesc::respond` on the source catalog.
    pub fn respond(&self, event: EventId, delta: &ActivityVector) -> f64 {
        let row = self.row(event);
        let mut acc = 0.0;
        for (w, d) in row.iter().zip(&delta.0) {
            acc += w * d;
        }
        acc.max(0.0)
    }

    /// Evaluates one delta against many events at once (a matvec over the
    /// selected rows), writing per-event increments into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != events.len()`.
    pub fn respond_many(&self, events: &[EventId], delta: &ActivityVector, out: &mut [f64]) {
        assert_eq!(events.len(), out.len(), "output slice must match events");
        for (slot, &event) in out.iter_mut().zip(events) {
            *slot = self.respond(event, delta);
        }
    }
}

/// Maps a model to its memoization slot (one per [`MicroArch::ALL`] entry).
pub(crate) fn arch_slot(arch: MicroArch) -> usize {
    match arch {
        MicroArch::IntelXeonE5_1650 => 0,
        MicroArch::IntelXeonE5_4617 => 1,
        MicroArch::AmdEpyc7252 => 2,
        MicroArch::AmdEpyc7313P => 3,
    }
}

/// One RDPMC read over a raw accumulation: the event's linear response,
/// the `draw`-th draw of the event's measurement-noise stream, and
/// quantization to an integer count.
///
/// This is the single definition of counter-read arithmetic. Live
/// counter reads (`CounterBank::rdpmc`) and the fuzzer's trace evaluator
/// both funnel through it, so the live and replayed measurement paths
/// cannot drift.
/// A zero response reads zero without touching the noise stream's value
/// (the draw index is still consumed by the caller, keeping read indices
/// aligned across paths).
#[inline]
pub fn read_counter(
    matrix: &ResponseMatrix,
    event: EventId,
    noise_base: u64,
    draw: u64,
    acc: &ActivityVector,
) -> u64 {
    let raw = matrix.respond(event, acc);
    if raw == 0.0 {
        return 0;
    }
    let g = measurement_noise(noise_base, event, draw);
    // Round, don't floor: a window whose true count is 1 must not
    // read 0 whenever the multiplicative noise dips below 1.0.
    (raw * (1.0 + matrix.noise_rel(event) * g)).max(0.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Origin;
    use crate::core::tests::{feed, program, quiet_core};
    use crate::CounterBank;
    use aegis_par::splitmix64;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Deterministic pseudo-random delta for exhaustive sweeps.
    fn delta_for(tag: u64) -> ActivityVector {
        let mut v = ActivityVector::ZERO;
        for (i, x) in v.0.iter_mut().enumerate() {
            let bits = splitmix64(tag.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9));
            // Mix of zero, small and large magnitudes, sign included.
            *x = match bits % 4 {
                0 => 0.0,
                1 => (bits >> 8) as f64 / 1e12,
                2 => -((bits >> 8) as f64 / 1e15),
                _ => (bits >> 20) as f64 / 1e6,
            };
        }
        v
    }

    #[test]
    fn matrix_matches_sparse_respond_for_every_event_on_all_models() {
        for arch in MicroArch::ALL {
            let catalog = EventCatalog::shared(arch);
            let matrix = ResponseMatrix::shared(arch);
            assert_eq!(matrix.n_events(), catalog.len());
            for desc in catalog.events() {
                for tag in 0..4u64 {
                    let d = delta_for(u64::from(desc.id.0) << 8 | tag);
                    let sparse = desc.respond(&d);
                    let dense = matrix.respond(desc.id, &d);
                    assert_eq!(
                        sparse.to_bits(),
                        dense.to_bits(),
                        "{arch} event {} delta {tag}",
                        desc.id
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn matrix_equals_sparse_on_random_vectors(
            arch_ix in 0usize..4,
            event_sel in 0u32..u32::MAX,
            raw in proptest::collection::vec(-1e6f64..1e6, Feature::COUNT),
        ) {
            let arch = MicroArch::ALL[arch_ix];
            let catalog = EventCatalog::shared(arch);
            let matrix = ResponseMatrix::shared(arch);
            let id = EventId(event_sel % catalog.len() as u32);
            let mut d = ActivityVector::ZERO;
            d.0.copy_from_slice(&raw);
            let sparse = catalog.get(id).unwrap().respond(&d);
            let dense = matrix.respond(id, &d);
            prop_assert_eq!(sparse.to_bits(), dense.to_bits());
        }
    }

    #[test]
    fn respond_many_matches_single_rows() {
        let arch = MicroArch::AmdEpyc7252;
        let matrix = ResponseMatrix::shared(arch);
        let events: Vec<EventId> = (0..32).map(EventId).collect();
        let d = delta_for(99);
        let mut out = vec![0.0; events.len()];
        matrix.respond_many(&events, &d, &mut out);
        for (&e, &got) in events.iter().zip(&out) {
            assert_eq!(got.to_bits(), matrix.respond(e, &d).to_bits());
        }
    }

    #[test]
    fn shared_matrix_is_memoized() {
        let a = ResponseMatrix::shared(MicroArch::IntelXeonE5_1650);
        let b = ResponseMatrix::shared(MicroArch::IntelXeonE5_1650);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn noise_streams_are_per_event_and_reproducible() {
        let base = 0xfeed;
        let a0 = measurement_noise(base, EventId(5), 0);
        assert_eq!(a0, measurement_noise(base, EventId(5), 0));
        assert_ne!(a0, measurement_noise(base, EventId(6), 0));
        assert_ne!(a0, measurement_noise(base, EventId(5), 1));
        assert_ne!(a0, measurement_noise(base ^ 1, EventId(5), 0));
    }

    #[test]
    fn noise_is_roughly_standard_gaussian() {
        let n = 4000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for k in 0..n {
            let g = measurement_noise(7, EventId(0), k);
            sum += g;
            sq += g * g;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 1.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn lane_replays_identically_and_respects_visibility() {
        let arch = MicroArch::AmdEpyc7252;
        let catalog = EventCatalog::shared(arch);
        let matrix = ResponseMatrix::shared(arch);
        let hw = catalog.lookup(crate::events::named::RETIRED_UOPS).unwrap();
        let sw = catalog
            .events()
            .iter()
            .find(|e| !e.guest_visible && !e.response.is_empty())
            .unwrap()
            .id;
        let mut rng = StdRng::seed_from_u64(3);
        let deltas: Vec<(ActivityVector, Origin)> = (0..50u64)
            .map(|i| {
                let origin = if rng.gen_bool(0.5) {
                    Origin::Guest(1)
                } else {
                    Origin::Host
                };
                (delta_for(i), origin)
            })
            .collect();
        let run = |event: EventId| {
            let mut core = quiet_core(arch, 42);
            program(&mut core, event);
            for (d, o) in &deltas {
                feed(&mut core, d, *o);
            }
            core.rdpmc(0, 0).unwrap()
        };
        assert_eq!(run(hw), run(hw), "replay must be bit-identical");
        // The live read is the shared read arithmetic over the fold.
        let mut fold = ActivityVector::ZERO;
        for (d, _) in &deltas {
            fold += *d;
        }
        let base = quiet_core(arch, 42).noise_base(0);
        assert_eq!(run(hw), read_counter(&matrix, hw, base, 0, &fold));
        // A guest-invisible event sees exactly its host-only share: lane
        // 0 sees every delta, lane 1 only the host ones.
        let mut core = quiet_core(arch, 42);
        program(&mut core, sw);
        let mut lanes = crate::CoreBatch::from_core_state(&core, 2);
        for (d, o) in &deltas {
            lanes.run_mix(0, d, 1_000, *o);
            if !o.is_guest() {
                lanes.run_mix(1, d, 1_000, *o);
            }
        }
        assert_eq!(
            lanes.rdpmc(0, 0),
            lanes.rdpmc(1, 0),
            "guest activity leaked into a host-only event"
        );
    }

    #[test]
    fn lane_reads_advance_the_noise_stream_and_resets_do_not() {
        let arch = MicroArch::AmdEpyc7252;
        let ev = EventCatalog::shared(arch)
            .lookup(crate::events::named::RETIRED_UOPS)
            .unwrap();
        let fed = || {
            let mut core = quiet_core(arch, 42);
            program(&mut core, ev);
            feed(&mut core, &delta_for(1), Origin::Host);
            core
        };
        let mut lane = fed();
        let first = lane.rdpmc(0, 0).unwrap();
        // Same accumulation, later draw index: a different noisy value in
        // general (draw 0 vs draw 1 of the stream).
        let second = lane.rdpmc(0, 0).unwrap();
        assert_eq!(first, fed().rdpmc(0, 0).unwrap(), "draw 0 must replay");
        assert_ne!(first, second, "reads must consume distinct draws");
        // reset_value clears the accumulation but not the draw index.
        lane.reset_value(0, 0);
        assert_eq!(lane.rdpmc(0, 0).unwrap(), 0, "reset lane reads zero");
    }
}
