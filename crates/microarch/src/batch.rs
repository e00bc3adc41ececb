//! The batched struct-of-arrays core engine: N independent sessions of
//! the same instruction stream executed as contiguous lanes.
//!
//! The repo's hot loops — fuzzer confirm-reps, dataset collection — all
//! have the shape "run the same gadget session N times under different
//! seeds". Object-at-a-time, each session costs a full [`Core`] clone, a
//! per-step `Vec` push into the activity log, and a re-fold pass at the
//! end. [`CoreBatch`] flattens all of that: one arena of per-lane state
//! (activity accumulator rows as flat `[f64; n_lanes × Feature::COUNT]`
//! like the attack plane's `Mat`, data-page caches as three `u64` words
//! per lane, branch tables as one contiguous byte row per lane), reused
//! across candidates via [`CoreBatch::reset_from`], with deltas folded
//! straight into window and counter rows as they are produced.
//!
//! # The scalar-reference invariant
//!
//! Lane `l` of a batch seeded `(template, seeds)` is **bit-identical** to
//! `template.clone()` + `reseed(seeds[l])` driven through the same calls
//! on the scalar [`Core`]. This holds structurally, not coincidentally:
//!
//! * both paths execute through the same [`instr_step`]/[`mix_step`]
//!   kernels in `core.rs` (single definition of instruction semantics);
//! * execution noise is keyed `(seed, site, instance)` through
//!   `derive_seed`, so a lane's draws depend only on its own call
//!   sequence — never on other lanes, batch width, or execution order;
//! * counter reads funnel through [`read_counter`], the single definition
//!   of response + noise + truncation arithmetic;
//! * accumulator folds are component-wise f64 additions in the same order
//!   as `ActivityVector`'s `AddAssign`.
//!
//! Property tests at the bottom of this file and in the fuzzer crate pin
//! the invariant across all [`MicroArch::ALL`] models.

use crate::activity::{ActivityVector, Feature, Origin};
use crate::arch::MicroArch;
use crate::cache::DataPageCache;
use crate::core::{instr_step, irq_activity, mix_step, Core, ExecDraws, LaneCtx, BRANCH_SLOTS};
use crate::core::{DrawSource, ExecError, InterferenceConfig};
use crate::events::{EventCatalog, EventId};
use crate::pmu::{CounterBank, CounterConfig, PmuError, COUNTER_SLOTS};
use crate::rand_util::PoissonLimit;
use crate::response::{noise_base_for_seed, read_counter, ResponseMatrix};
use aegis_isa::InstructionSpec;
use std::sync::Arc;

/// Per-slot counter programming shared by every lane (the fuzzer programs
/// all sessions of a candidate identically; per-lane state lives in the
/// flat accumulator rows).
#[derive(Debug, Clone, Copy)]
struct SlotTemplate {
    config: CounterConfig,
    guest_visible: bool,
}

/// How many instruction ids a memoizable window can span: two fences plus
/// the gadget sequence (fuzzer gadgets are one or two instructions,
/// sequence mode a handful).
const WIN_KEY_IDS: usize = 6;

/// Memoized-window store bound. The recorder protocol only ever cycles
/// through a couple of (sequence, cache-state) pairs per candidate block,
/// so the store stays tiny; the cap just guards pathological callers.
const TEMPLATE_CAP: usize = 64;

/// Identity of a fenced window's deterministic inputs: the executed
/// instruction ids (fence, sequence, fence) and the low-line cache state
/// — everything [`instr_step`] can read besides the draw streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WinKey {
    ids: [u32; WIN_KEY_IDS],
    len: u8,
    cache: u16,
}

impl WinKey {
    fn new(fence: &InstructionSpec, seq: &[&InstructionSpec], cache: u16) -> Self {
        let mut ids = [0u32; WIN_KEY_IDS];
        ids[0] = fence.id.0;
        for (i, s) in seq.iter().enumerate() {
            ids[i + 1] = s.id.0;
        }
        ids[seq.len() + 1] = fence.id.0;
        WinKey {
            ids,
            len: (seq.len() + 2) as u8,
            cache,
        }
    }
}

/// The deterministic replay of one fenced window: what the window does to
/// a lane when none of its Bernoulli draws fires, plus the draw plan to
/// check. Bit-exact by construction: the stored sum is the very fold the
/// live path performs on zeroed window rows, produced by the same
/// [`instr_step`] kernel run against a counting probe.
#[derive(Debug, Clone, Copy)]
struct WindowTemplate {
    /// Window sum of the sequence deltas (fences excluded), folded in
    /// step order from zero — the exact final value of the window rows.
    sum: ActivityVector,
    /// Total cycles of fences + sequence (per-instruction truncations).
    cycles: u64,
    /// Steps executed: fences plus non-faulting sequence instructions.
    steps: usize,
    /// Cache state after the window (low lines meaningful).
    cache_after: DataPageCache,
    /// DTLB draws the window consumes, at probability `p_dtlb` each.
    n_dtlb: u32,
    p_dtlb: f64,
    /// IRQ draws the window consumes (one per executed instruction), at
    /// probability `p_irq` each.
    n_irq: u32,
    p_irq: f64,
    /// Feature-support bitmask of `sum` (bit `i` set iff component `i` is
    /// non-zero) — precomputed so trace recorders can fold a session's
    /// support without rescanning replayed sums.
    support: u32,
}

/// A [`DrawSource`] that never fires and records the draw plan: per-site
/// call counts and probabilities. A branch draw marks the window
/// uncacheable — its outcome feeds the persistent predictor table, so a
/// branchy window has no draw-free replay.
#[derive(Debug, Default)]
struct DrawProbe {
    n_dtlb: u32,
    p_dtlb: f64,
    n_irq: u32,
    p_irq: f64,
    uncacheable: bool,
}

impl DrawProbe {
    fn site(n: &mut u32, p_site: &mut f64, p: f64, uncacheable: &mut bool) {
        if *n > 0 && *p_site != p {
            *uncacheable = true;
        }
        *p_site = p;
        *n += 1;
    }
}

impl DrawSource for DrawProbe {
    fn branch_taken(&mut self, _p: f64) -> bool {
        self.uncacheable = true;
        false
    }

    fn irq_fires(&mut self, p: f64) -> bool {
        Self::site(&mut self.n_irq, &mut self.p_irq, p, &mut self.uncacheable);
        false
    }

    fn dtlb_misses(&mut self, p: f64) -> bool {
        Self::site(&mut self.n_dtlb, &mut self.p_dtlb, p, &mut self.uncacheable);
        false
    }
}

/// Runs a fenced window against the counting probe to produce its
/// deterministic replay, or `None` if the window is uncacheable (contains
/// a branch or mixed per-site probabilities).
fn build_window_template(
    fence: &InstructionSpec,
    seq: &[&InstructionSpec],
    mut cache: DataPageCache,
    interference: &InterferenceConfig,
) -> Option<WindowTemplate> {
    let mut probe = DrawProbe::default();
    let mut branch = [0u8; BRANCH_SLOTS];
    let mut sum = ActivityVector::ZERO;
    let mut cycles = 0u64;
    let mut steps = 0usize;
    let window = std::iter::once((fence, false))
        .chain(seq.iter().map(|s| (*s, true)))
        .chain(std::iter::once((fence, false)));
    for (spec, windowed) in window {
        let mut ctx = LaneCtx {
            cache: &mut cache,
            branch_table: &mut branch[..],
            draws: &mut probe,
        };
        // Faulting specs contribute nothing, exactly like the live path;
        // `out.irq` is always false under the never-firing probe.
        if let Ok(out) = instr_step(spec, interference, &mut ctx) {
            cycles += out.cycles;
            steps += 1;
            if windowed {
                sum += out.delta;
            }
        }
    }
    if probe.uncacheable {
        return None;
    }
    let mut support = 0u32;
    for (i, v) in sum.0.iter().enumerate() {
        if *v != 0.0 {
            support |= 1 << i;
        }
    }
    Some(WindowTemplate {
        sum,
        cycles,
        steps,
        cache_after: cache,
        n_dtlb: probe.n_dtlb,
        p_dtlb: probe.p_dtlb,
        n_irq: probe.n_irq,
        p_irq: probe.p_irq,
        support,
    })
}

/// A batch of independent core sessions in struct-of-arrays layout.
///
/// All lanes share one processor model, catalog, interference config, and
/// counter programming; everything stochastic or stateful is per lane.
/// Lanes are completely independent: any partition of N sessions into
/// batches of any width produces identical per-session results.
#[derive(Debug, Clone)]
pub struct CoreBatch {
    arch: MicroArch,
    catalog: Arc<EventCatalog>,
    matrix: Arc<ResponseMatrix>,
    interference: InterferenceConfig,
    n_lanes: usize,
    /// Per-lane keyed execution-noise streams.
    draws: Vec<ExecDraws>,
    /// `exp(-λ)` memo of the mix steps' interrupt draws (λ is shared by
    /// every lane: one interference config, one step length).
    poisson_limit: PoissonLimit,
    /// Per-lane measurement-noise bases.
    noise_bases: Vec<u64>,
    /// Per-lane data-page caches (three `u64` words each).
    caches: Vec<DataPageCache>,
    /// Branch-predictor tables, one contiguous `BRANCH_SLOTS` row per lane.
    branch: Vec<u8>,
    /// Per-lane unhalted cycle counts.
    cycles: Vec<u64>,
    /// Per-lane fail-closed latches (the host's supervision layer latches
    /// cores independently; lanes model independent sessions).
    fail_closed: Vec<bool>,
    /// Per-lane executed-step counts (instruction + IRQ deltas), the
    /// analogue of the scalar activity log's length.
    steps: Vec<usize>,
    /// Counter programming, shared across lanes.
    slots: [Option<SlotTemplate>; COUNTER_SLOTS],
    /// Counter accumulations: row `(lane × COUNTER_SLOTS + slot)` of
    /// `Feature::COUNT` f64s.
    pmu_acc: Vec<f64>,
    /// Noise draws consumed per `(lane, slot)`.
    pmu_draws: Vec<u64>,
    /// Current-window activity sums: row `lane` of `Feature::COUNT` f64s,
    /// all origins.
    win_all: Vec<f64>,
    /// Current-window activity sums, host-origin deltas only.
    win_host: Vec<f64>,
    /// Memoized fenced-window replays, shared across lanes (templates are
    /// draw-free and keyed by everything lane-specific they read).
    win_templates: Vec<(WinKey, Option<WindowTemplate>)>,
    /// Index into `win_templates` of the most recently used entry — the
    /// recording protocol repeats one window across lanes and reps, so
    /// this one-entry memo turns the common lookup into a single compare.
    last_template: usize,
    /// Windows served by the replay path since the last reset — the
    /// fast-path hit counter (diagnostics; no effect on results).
    replay_hits: u64,
}

impl CoreBatch {
    /// Cache-friendly tile width: drivers that want more sessions than
    /// this in flight should run them as consecutive tiles of at most
    /// `TILE_LANES` lanes rather than one wide batch. The arena rows
    /// (counter accumulations, window sums, branch tables) for 32 lanes
    /// fit comfortably in L2; at 128 lanes the strided per-slot folds
    /// start missing, which is exactly the batched-128 regression in
    /// BENCH_core.json. Lanes are fully independent, so any tiling of N
    /// sessions produces bit-identical per-session results.
    pub const TILE_LANES: usize = 32;

    /// Builds a batch whose lanes all start as copies of `template`
    /// reseeded with the respective entry of `seeds` — the batched
    /// equivalent of `template.clone()` + `reseed(seed)` per session.
    pub fn from_template(template: &Core, seeds: &[u64]) -> Self {
        let mut batch = CoreBatch {
            arch: template.arch(),
            catalog: template.catalog(),
            matrix: Arc::clone(template.pmu().matrix()),
            interference: template.interference(),
            n_lanes: 0,
            draws: Vec::new(),
            poisson_limit: PoissonLimit::new(),
            noise_bases: Vec::new(),
            caches: Vec::new(),
            branch: Vec::new(),
            cycles: Vec::new(),
            fail_closed: Vec::new(),
            steps: Vec::new(),
            slots: [None; COUNTER_SLOTS],
            pmu_acc: Vec::new(),
            pmu_draws: Vec::new(),
            win_all: Vec::new(),
            win_host: Vec::new(),
            win_templates: Vec::new(),
            last_template: 0,
            replay_hits: 0,
        };
        batch.reset_from(template, seeds);
        batch
    }

    /// Re-seeds the batch from a (possibly different) template without
    /// releasing the arena: every buffer is truncated/extended in place,
    /// so driving thousands of fuzzer candidates through one `CoreBatch`
    /// performs no steady-state allocation.
    pub fn reset_from(&mut self, template: &Core, seeds: &[u64]) {
        let n = seeds.len();
        self.arch = template.arch();
        self.catalog = template.catalog();
        self.matrix = Arc::clone(template.pmu().matrix());
        self.interference = template.interference();
        self.n_lanes = n;

        self.draws.clear();
        self.draws.extend(seeds.iter().map(|&s| ExecDraws::new(s)));
        self.noise_bases.clear();
        self.noise_bases
            .extend(seeds.iter().map(|&s| noise_base_for_seed(s)));

        fill(&mut self.caches, n, template.cache_snapshot());
        fill(&mut self.cycles, n, template.cycles());
        fill(&mut self.fail_closed, n, template.pmu().fail_closed());
        fill(&mut self.steps, n, 0);

        self.branch.clear();
        for _ in 0..n {
            self.branch.extend_from_slice(template.branch_snapshot());
        }

        fill(&mut self.pmu_acc, n * COUNTER_SLOTS * Feature::COUNT, 0.0);
        fill(&mut self.pmu_draws, n * COUNTER_SLOTS, 0);
        for slot in 0..COUNTER_SLOTS {
            match template.pmu().slot_state(slot) {
                Some((config, lane)) => {
                    self.slots[slot] = Some(SlotTemplate {
                        config,
                        guest_visible: lane.guest_visible(),
                    });
                    for l in 0..n {
                        self.pmu_acc_row_mut(l, slot).copy_from_slice(&lane.acc().0);
                        self.pmu_draws[l * COUNTER_SLOTS + slot] = lane.draws_consumed();
                    }
                }
                None => self.slots[slot] = None,
            }
        }

        fill(&mut self.win_all, n * Feature::COUNT, 0.0);
        fill(&mut self.win_host, n * Feature::COUNT, 0.0);
        // Templates capture the interference config; a reset may change it.
        self.win_templates.clear();
        self.last_template = 0;
        self.replay_hits = 0;
    }

    /// Builds a batch whose lanes all start as **exact mid-stream copies**
    /// of `core` — draw-stream positions, measurement-noise base, cache,
    /// branch table, cycles, fail-closed latch, and counter state are
    /// replicated verbatim rather than re-derived from a seed. This is the
    /// lane-group constructor of the fleet measurement plane: every fleet
    /// replica forks from the *same* prepared host, so its per-core lanes
    /// all start identical and diverge only through the per-lane activity
    /// sources the driver attaches.
    ///
    /// Lane `l` is bit-identical to `core.clone()` driven through the same
    /// calls on the scalar [`Core`] — the invariant the `aegis-sev`
    /// proptests pin against `Host::record_trace` on detached forks.
    pub fn from_core_state(core: &Core, n_lanes: usize) -> Self {
        let mut batch = CoreBatch::from_template(core, &[]);
        batch.reset_from_core_state(core, n_lanes);
        batch
    }

    /// Re-fills the batch as `n_lanes` exact mid-stream copies of `core`
    /// without releasing the arena (see [`CoreBatch::from_core_state`]).
    pub fn reset_from_core_state(&mut self, core: &Core, n_lanes: usize) {
        // Seed values are irrelevant here — draws and noise bases are
        // overwritten with the core's exact mid-stream state below — but
        // reusing `reset_from` keeps one definition of the arena layout.
        let seeds = vec![0u64; n_lanes];
        self.reset_from(core, &seeds);
        let draws = core.draws_snapshot();
        self.draws.clear();
        self.draws.resize(n_lanes, draws);
        let base = core.pmu().noise_base();
        self.noise_bases.clear();
        self.noise_bases.resize(n_lanes, base);
    }

    /// Clears a counter slot on every lane (mirrors [`crate::Pmu::clear`]:
    /// out-of-range slots are ignored).
    pub fn clear_slot(&mut self, slot: usize) {
        if let Some(s) = self.slots.get_mut(slot) {
            *s = None;
        }
    }

    /// The shared event catalog (same handle as the template core's).
    pub fn catalog(&self) -> Arc<EventCatalog> {
        Arc::clone(&self.catalog)
    }

    /// A lane's measurement-noise base (keys a recorder's fault streams
    /// exactly as [`crate::Pmu::noise_base`] does on a scalar core).
    pub fn noise_base(&self, lane: usize) -> u64 {
        self.noise_bases[lane]
    }

    /// The event programmed on a slot, if any (mirrors
    /// [`crate::Pmu::programmed_event`]).
    pub fn programmed_event(&self, slot: usize) -> Option<EventId> {
        self.slots.get(slot)?.as_ref().map(|t| t.config.event)
    }

    /// Number of lanes.
    pub fn n_lanes(&self) -> usize {
        self.n_lanes
    }

    /// The processor model.
    pub fn arch(&self) -> MicroArch {
        self.arch
    }

    /// Unhalted cycles executed by a lane.
    pub fn cycles(&self, lane: usize) -> u64 {
        self.cycles[lane]
    }

    /// Activity deltas applied by a lane so far (instruction + IRQ steps),
    /// the analogue of the scalar core's recording length.
    pub fn steps(&self, lane: usize) -> usize {
        self.steps[lane]
    }

    /// Scratch-page lines resident in a lane's L1D.
    pub fn cache_resident_lines(&self, lane: usize) -> usize {
        self.caches[lane].resident_lines()
    }

    /// Latches (or releases) a lane's fail-closed mode; semantics match
    /// [`crate::Pmu::set_fail_closed`] per lane.
    pub fn set_fail_closed(&mut self, lane: usize, on: bool) {
        self.fail_closed[lane] = on;
    }

    /// Whether a lane's fail-closed latch is set.
    pub fn fail_closed(&self, lane: usize) -> bool {
        self.fail_closed[lane]
    }

    /// Fenced windows served by the memoized replay path since the last
    /// reset (diagnostics for hit-rate reporting; no effect on results).
    pub fn replay_hits(&self) -> u64 {
        self.replay_hits
    }

    fn pmu_acc_row_mut(&mut self, lane: usize, slot: usize) -> &mut [f64] {
        let at = (lane * COUNTER_SLOTS + slot) * Feature::COUNT;
        &mut self.pmu_acc[at..at + Feature::COUNT]
    }

    /// Programs a counter slot on every lane, zeroing its accumulation and
    /// noise stream (mirrors [`crate::Pmu::program`]).
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
        self.slots[slot] = Some(SlotTemplate {
            config,
            guest_visible: self.matrix.guest_visible(config.event),
        });
        for lane in 0..self.n_lanes {
            self.pmu_acc_row_mut(lane, slot).fill(0.0);
            self.pmu_draws[lane * COUNTER_SLOTS + slot] = 0;
        }
        Ok(())
    }

    /// Zeroes a programmed counter's value on one lane without touching
    /// its noise stream (mirrors [`crate::Pmu::reset_value`]).
    pub fn reset_value(&mut self, lane: usize, slot: usize) {
        if slot < COUNTER_SLOTS && self.slots[slot].is_some() {
            self.pmu_acc_row_mut(lane, slot).fill(0.0);
        }
    }

    /// Reads a lane's programmed counter (mirrors [`crate::Pmu::rdpmc`],
    /// including the fail-closed gate and draw accounting).
    ///
    /// # Errors
    ///
    /// Returns [`PmuError::Unprogrammed`] or [`PmuError::BadSlot`].
    pub fn rdpmc(&mut self, lane: usize, slot: usize) -> Result<u64, PmuError> {
        if slot >= COUNTER_SLOTS {
            return Err(PmuError::BadSlot(slot));
        }
        let t = self.slots[slot].ok_or(PmuError::Unprogrammed(slot))?;
        if self.fail_closed[lane] && t.guest_visible {
            return Ok(0);
        }
        let draw = self.pmu_draws[lane * COUNTER_SLOTS + slot];
        self.pmu_draws[lane * COUNTER_SLOTS + slot] += 1;
        let mut acc = ActivityVector::ZERO;
        let at = (lane * COUNTER_SLOTS + slot) * Feature::COUNT;
        acc.0.copy_from_slice(&self.pmu_acc[at..at + Feature::COUNT]);
        Ok(read_counter(
            &self.matrix,
            t.config.event,
            self.noise_bases[lane],
            draw,
            &acc,
        ))
    }

    /// Applies one delta to a lane's counter rows and window rows —
    /// the batched analogue of `Core::apply_activity` + `Pmu::apply` +
    /// `CounterLane::accumulate`, with identical gating and fold order.
    fn apply(&mut self, lane: usize, delta: &ActivityVector, origin: Origin, windowed: bool) {
        for slot in 0..COUNTER_SLOTS {
            let Some(t) = self.slots[slot] else { continue };
            if !t.config.filter.matches(origin) {
                continue;
            }
            if origin.is_guest() && !t.guest_visible {
                continue;
            }
            let at = (lane * COUNTER_SLOTS + slot) * Feature::COUNT;
            for (a, d) in self.pmu_acc[at..at + Feature::COUNT].iter_mut().zip(&delta.0) {
                *a += *d;
            }
        }
        self.steps[lane] += 1;
        if windowed {
            let at = lane * Feature::COUNT;
            for (a, d) in self.win_all[at..at + Feature::COUNT].iter_mut().zip(&delta.0) {
                *a += *d;
            }
            if !origin.is_guest() {
                for (a, d) in self.win_host[at..at + Feature::COUNT].iter_mut().zip(&delta.0) {
                    *a += *d;
                }
            }
        }
    }

    fn execute_inner(
        &mut self,
        lane: usize,
        spec: &InstructionSpec,
        origin: Origin,
        windowed: bool,
    ) -> Result<ActivityVector, ExecError> {
        let mut ctx = LaneCtx {
            cache: &mut self.caches[lane],
            branch_table: &mut self.branch[lane * BRANCH_SLOTS..(lane + 1) * BRANCH_SLOTS],
            draws: &mut self.draws[lane],
        };
        let out = instr_step(spec, &self.interference, &mut ctx)?;
        self.cycles[lane] += out.cycles;
        if out.irq {
            self.apply(lane, irq_activity(), Origin::Host, windowed);
        }
        self.apply(lane, &out.delta, origin, windowed);
        Ok(out.delta)
    }

    /// Executes one instruction on a lane, folding its activity into the
    /// current window (bit-equal to [`Core::execute_instr`] on the lane's
    /// scalar twin).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] exactly as the scalar core does.
    pub fn execute_instr(
        &mut self,
        lane: usize,
        spec: &InstructionSpec,
        origin: Origin,
    ) -> Result<ActivityVector, ExecError> {
        self.execute_inner(lane, spec, origin, true)
    }

    /// Executes one instruction on a lane *outside* the current window:
    /// state, counters, steps, and draws all advance, but the delta is not
    /// folded into the window sums. This is the fence path of the fuzzer's
    /// measurement protocol (serializing CPUID before/after each window).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] exactly as the scalar core does.
    pub fn execute_unwindowed(
        &mut self,
        lane: usize,
        spec: &InstructionSpec,
        origin: Origin,
    ) -> Result<ActivityVector, ExecError> {
        self.execute_inner(lane, spec, origin, false)
    }

    /// Executes one fenced measurement window on a lane — a fresh window,
    /// the serializing `fence` outside it, the sequence inside it, `fence`
    /// again — and appends the window's two activity folds (all origins,
    /// then host-only) to `out` as `2 × Feature::COUNT` values. This is
    /// the unit of work of the recording protocol.
    ///
    /// The appended folds are bit-identical to zeroing the lane's window
    /// rows, issuing [`execute_unwindowed`]`(fence)`, [`execute_instr`]
    /// per sequence spec, [`execute_unwindowed`]`(fence)`, and reading
    /// [`window_all`]/[`window_host`] — but memoized: a window's effect is
    /// deterministic given its instruction ids and the low-line cache
    /// state, except for its Bernoulli draws. The first execution of each
    /// `(ids, cache)` key captures that deterministic replay by running
    /// the shared `instr_step` kernel against a counting probe;
    /// subsequent executions check the draw plan against the lane's real
    /// streams (identical per-site consumption, so lane state cannot
    /// drift) and, when no draw fires — the overwhelmingly common case on
    /// an isolated core — apply the replay in O(features) instead of
    /// re-simulating every instruction. Any fired draw rewinds the stream
    /// and takes the live path. Windows with branches, guest origin, or
    /// programmed counter slots always take the live path.
    ///
    /// The lane's window rows are left unspecified afterwards (the replay
    /// path never touches them); the appended values are the window sums.
    ///
    /// Returns the window's feature-support bitmask (bit `i` set iff
    /// either appended fold has a non-zero component `i`), so recorders
    /// can maintain a session's support union without rescanning sums.
    ///
    /// [`execute_unwindowed`]: CoreBatch::execute_unwindowed
    /// [`execute_instr`]: CoreBatch::execute_instr
    /// [`window_all`]: CoreBatch::window_all
    /// [`window_host`]: CoreBatch::window_host
    pub fn fenced_window(
        &mut self,
        lane: usize,
        fence: &InstructionSpec,
        seq: &[&InstructionSpec],
        origin: Origin,
        out: &mut Vec<f64>,
    ) -> u32 {
        if !origin.is_guest()
            && seq.len() + 2 <= WIN_KEY_IDS
            && self.slots.iter().all(Option::is_none)
        {
            if let Some(support) = self.try_replay_window(lane, fence, seq, out) {
                return support;
            }
        }

        let at = lane * Feature::COUNT;
        self.win_all[at..at + Feature::COUNT].fill(0.0);
        self.win_host[at..at + Feature::COUNT].fill(0.0);
        let _ = self.execute_inner(lane, fence, origin, false);
        for spec in seq {
            let _ = self.execute_inner(lane, spec, origin, true);
        }
        let _ = self.execute_inner(lane, fence, origin, false);
        let mut support = 0u32;
        for i in 0..Feature::COUNT {
            if self.win_all[at + i] != 0.0 || self.win_host[at + i] != 0.0 {
                support |= 1 << i;
            }
        }
        out.extend_from_slice(&self.win_all[at..at + Feature::COUNT]);
        out.extend_from_slice(&self.win_host[at..at + Feature::COUNT]);
        support
    }

    /// The memoized fast path of [`CoreBatch::fenced_window`]: looks up
    /// (building on miss) the window's template and applies it if none of
    /// the window's draws fires. Returns the window's support mask when
    /// the replay was applied; on `None` the lane's draw streams are
    /// exactly as before the call and nothing was appended to `out`.
    fn try_replay_window(
        &mut self,
        lane: usize,
        fence: &InstructionSpec,
        seq: &[&InstructionSpec],
        out: &mut Vec<f64>,
    ) -> Option<u32> {
        let key = WinKey::new(fence, seq, self.caches[lane].low_lines_key());
        // One-entry memo first: the protocol repeats one window across
        // lanes and reps, so the full scan is rare.
        let idx = match self.win_templates.get(self.last_template) {
            Some((k, _)) if *k == key => self.last_template,
            _ => match self.win_templates.iter().position(|(k, _)| *k == key) {
                Some(i) => i,
                None => {
                    let tpl =
                        build_window_template(fence, seq, self.caches[lane], &self.interference);
                    if self.win_templates.len() >= TEMPLATE_CAP {
                        self.win_templates.clear();
                    }
                    self.win_templates.push((key, tpl));
                    self.win_templates.len() - 1
                }
            },
        };
        self.last_template = idx;
        let tpl = self.win_templates[idx].1?;
        // Check the draw plan against the lane's real streams. Per-site
        // consumption counts match the live path exactly, so instance
        // counters stay aligned whichever path later windows take.
        let saved = self.draws[lane];
        let draws = &mut self.draws[lane];
        let mut fired = false;
        for _ in 0..tpl.n_dtlb {
            fired |= draws.dtlb_misses(tpl.p_dtlb);
        }
        for _ in 0..tpl.n_irq {
            fired |= draws.irq_fires(tpl.p_irq);
        }
        if fired {
            self.draws[lane] = saved;
            return None;
        }
        // The template sum IS the fold the live path would have produced
        // on zeroed window rows, so appending it verbatim is bit-exact;
        // with no guest steps the host fold reuses the full fold, exactly
        // like the scalar recorder.
        out.extend_from_slice(&tpl.sum.0);
        out.extend_from_slice(&tpl.sum.0);
        self.cycles[lane] += tpl.cycles;
        self.steps[lane] += tpl.steps;
        self.caches[lane].adopt_low_lines(&tpl.cache_after);
        self.replay_hits += 1;
        Some(tpl.support)
    }

    /// Applies `dur_ns` of a rate-based activity mix to a lane (bit-equal
    /// to [`Core::run_mix`] on the lane's scalar twin).
    pub fn run_mix(
        &mut self,
        lane: usize,
        rate: &ActivityVector,
        dur_ns: u64,
        origin: Origin,
    ) -> ActivityVector {
        let out = mix_step(
            rate,
            dur_ns,
            &self.interference,
            &mut self.draws[lane],
            &mut self.poisson_limit,
        );
        self.cycles[lane] += out.delta[Feature::Cycles] as u64;
        self.apply(lane, &out.delta, origin, true);
        if out.n_irq > 0 {
            let irq = irq_activity().scaled(out.n_irq as f64);
            self.apply(lane, &irq, Origin::Host, true);
        }
        out.delta
    }

    /// Starts a lane `steps` mix steps further along its noise streams:
    /// the position `steps` [`CoreBatch::run_mix`] calls would leave it
    /// at, without executing them. A lane snapshot of a core can thereby
    /// begin where the core's own timeline would be after mixes run by
    /// other lanes (the counterpart of [`Core::skip_mixes`]).
    pub fn skip_mixes(&mut self, lane: usize, steps: u64) {
        self.draws[lane].skip_mixes(steps);
    }

    /// Flushes a lane's scratch data page (mirrors [`Core::reset_cache`]).
    pub fn reset_cache(&mut self, lane: usize) {
        self.caches[lane] = DataPageCache::cold();
    }

    /// Zeroes every lane's window sums, opening a new measurement window.
    pub fn clear_windows(&mut self) {
        self.win_all.fill(0.0);
        self.win_host.fill(0.0);
    }

    /// A lane's current window sum over all origins. The fold is the same
    /// component-wise f64 addition, in the same step order, as summing the
    /// scalar core's recorded deltas — bit-identical by construction.
    pub fn window_all(&self, lane: usize) -> ActivityVector {
        self.window_row(&self.win_all, lane)
    }

    /// A lane's current window sum restricted to host-origin deltas.
    pub fn window_host(&self, lane: usize) -> ActivityVector {
        self.window_row(&self.win_host, lane)
    }

    fn window_row(&self, rows: &[f64], lane: usize) -> ActivityVector {
        let mut v = ActivityVector::ZERO;
        v.0.copy_from_slice(&rows[lane * Feature::COUNT..(lane + 1) * Feature::COUNT]);
        v
    }
}

/// A batch is an n-lane counter bank over its inherent slot methods.
impl CounterBank for CoreBatch {
    fn n_lanes(&self) -> usize {
        self.n_lanes
    }

    fn noise_base(&self, lane: usize) -> u64 {
        self.noise_bases[lane]
    }

    fn has_event(&self, event: EventId) -> bool {
        self.catalog.get(event).is_some()
    }

    fn program(&mut self, slot: usize, config: CounterConfig) -> Result<(), PmuError> {
        CoreBatch::program(self, slot, config)
    }

    fn clear_slot(&mut self, slot: usize) {
        CoreBatch::clear_slot(self, slot);
    }

    fn programmed_event(&self, slot: usize) -> Option<EventId> {
        CoreBatch::programmed_event(self, slot)
    }

    fn rdpmc(&mut self, lane: usize, slot: usize) -> Result<u64, PmuError> {
        CoreBatch::rdpmc(self, lane, slot)
    }

    fn reset_value(&mut self, lane: usize, slot: usize) {
        CoreBatch::reset_value(self, lane, slot);
    }
}

/// Truncate-and-refill a buffer: the arena-reuse primitive (`clear` keeps
/// capacity; `resize` writes the template value into every element).
fn fill<T: Copy>(buf: &mut Vec<T>, n: usize, value: T) {
    buf.clear();
    buf.resize(n, value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::named;
    use crate::pmu::OriginFilter;
    use aegis_isa::{well_known, WellKnown};
    use aegis_par::derive_seed;
    use proptest::prelude::*;

    /// Instruction mix exercising every stochastic site: branches (branch
    /// stream), loads/stores (cache + DTLB), flush (cache reset), plus
    /// serializing and SIMD ops.
    fn op_pool() -> Vec<aegis_isa::InstructionSpec> {
        [
            WellKnown::Nop,
            WellKnown::Load64,
            WellKnown::Store64,
            WellKnown::Clflush,
            WellKnown::Cpuid,
            WellKnown::SimdAdd,
            WellKnown::FpAdd,
            WellKnown::BranchBiased,
        ]
        .into_iter()
        .map(well_known)
        .collect()
    }

    fn programmed_template(arch: MicroArch, seed: u64) -> Core {
        let mut core = Core::new(arch, seed);
        core.set_interference(InterferenceConfig::noisy());
        let catalog = core.catalog();
        // Slot 0: a guest-visible hardware event (works on every model);
        // slot 2: a host-only software event, to exercise both gates.
        let hw = catalog
            .events()
            .iter()
            .find(|e| e.guest_visible && !e.response.is_empty())
            .unwrap()
            .id;
        core.pmu_mut()
            .program(
                0,
                CounterConfig {
                    event: hw,
                    filter: OriginFilter::Any,
                },
            )
            .unwrap();
        if let Some(sw) = catalog
            .events()
            .iter()
            .find(|e| !e.guest_visible && !e.response.is_empty())
        {
            core.pmu_mut()
                .program(
                    2,
                    CounterConfig {
                        event: sw.id,
                        filter: OriginFilter::HostOnly,
                    },
                )
                .unwrap();
        }
        core
    }

    /// Drives one scalar twin and one batch lane through the same session
    /// script and asserts bit-identical observables at every checkpoint.
    fn assert_lane_matches_scalar(
        template: &Core,
        batch: &mut CoreBatch,
        lane: usize,
        seed: u64,
        script: &[u8],
    ) {
        let ops = op_pool();
        let mut scalar = template.clone();
        scalar.reseed(seed);
        scalar.start_recording();
        let mix = ActivityVector::from_pairs(&[
            (Feature::UopsRetired, 120.0),
            (Feature::Loads, 30.0),
            (Feature::Cycles, 200.0),
        ]);
        for &step in script {
            match step % 12 {
                0..=7 => {
                    let spec = &ops[(step % 8) as usize];
                    let origin = if step % 3 == 0 {
                        Origin::Guest(1)
                    } else {
                        Origin::Host
                    };
                    let s = scalar.execute_instr(spec, origin);
                    let b = batch.execute_instr(lane, spec, origin);
                    assert_eq!(s, b, "instr delta diverged");
                }
                8 => {
                    let s = scalar.run_mix(&mix, 5_000, Origin::Guest(2));
                    let b = batch.run_mix(lane, &mix, 5_000, Origin::Guest(2));
                    assert_eq!(s.0.map(f64::to_bits), b.0.map(f64::to_bits));
                }
                9 => {
                    scalar.reset_cache();
                    batch.reset_cache(lane);
                }
                10 => {
                    scalar.pmu_mut().reset_value(0);
                    batch.reset_value(lane, 0);
                }
                _ => {
                    assert_eq!(
                        scalar.pmu().rdpmc(0),
                        batch.rdpmc(lane, 0),
                        "rdpmc diverged"
                    );
                }
            }
        }
        assert_eq!(scalar.cycles(), batch.cycles(lane), "cycles diverged");
        assert_eq!(
            scalar.cache_resident_lines(),
            batch.cache_resident_lines(lane),
            "cache diverged"
        );
        assert_eq!(scalar.pmu().rdpmc(0), batch.rdpmc(lane, 0));
        // The batch window fold must equal folding the scalar recording.
        let log = scalar.take_recording();
        assert_eq!(log.len(), batch.steps(lane), "step count diverged");
        let mut all = ActivityVector::ZERO;
        let mut host = ActivityVector::ZERO;
        for (origin, delta) in &log {
            all += *delta;
            if !origin.is_guest() {
                host += *delta;
            }
        }
        assert_eq!(
            all.0.map(f64::to_bits),
            batch.window_all(lane).0.map(f64::to_bits),
            "window(all) diverged"
        );
        assert_eq!(
            host.0.map(f64::to_bits),
            batch.window_host(lane).0.map(f64::to_bits),
            "window(host) diverged"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Tentpole invariant: every lane of a batch is bit-identical to a
        /// reseeded clone of the template on every model.
        #[test]
        fn lanes_match_scalar_reference_on_all_models(
            arch_ix in 0usize..MicroArch::ALL.len(),
            seed in 0u64..1 << 48,
            warmup in proptest::collection::vec(0u8..12, 0..16),
            script in proptest::collection::vec(0u8..12, 1..64),
            n_lanes in 1usize..5,
        ) {
            let arch = MicroArch::ALL[arch_ix];
            let mut template = programmed_template(arch, seed);
            // Warm the template so lanes inherit non-trivial cache/branch/
            // counter state, as fuzzer baselines do.
            let ops = op_pool();
            for &w in &warmup {
                let _ = template.execute_instr(&ops[(w % 8) as usize], Origin::Host);
            }
            let seeds: Vec<u64> =
                (0..n_lanes as u64).map(|l| derive_seed(seed, 0x7e57, l)).collect();
            let mut batch = CoreBatch::from_template(&template, &seeds);
            for (lane, &s) in seeds.iter().enumerate() {
                assert_lane_matches_scalar(&template, &mut batch, lane, s, &script);
            }
        }
    }

    #[test]
    fn reset_from_reuses_the_arena_bit_identically() {
        // Candidate 2 run on a fresh batch vs on an arena that already ran
        // candidate 1: identical. (Lane state must be fully re-derived.)
        let template = programmed_template(MicroArch::IntelXeonE5_1650, 3);
        let seeds_a: Vec<u64> = (0..8).map(|l| derive_seed(3, 1, l)).collect();
        let seeds_b: Vec<u64> = (0..5).map(|l| derive_seed(3, 2, l)).collect();
        let ops = op_pool();
        let run = |batch: &mut CoreBatch| -> Vec<u64> {
            (0..batch.n_lanes())
                .map(|lane| {
                    for step in 0..40u8 {
                        let _ = batch.execute_instr(lane, &ops[(step % 8) as usize], Origin::Host);
                    }
                    batch.rdpmc(lane, 0).unwrap()
                })
                .collect()
        };
        let mut reused = CoreBatch::from_template(&template, &seeds_a);
        let _ = run(&mut reused);
        reused.reset_from(&template, &seeds_b);
        let mut fresh = CoreBatch::from_template(&template, &seeds_b);
        assert_eq!(run(&mut reused), run(&mut fresh));
    }

    #[test]
    fn lane_results_are_independent_of_batch_width() {
        // The same 8 sessions split 1×8, 2×4, 8×1 produce identical reads.
        let template = programmed_template(MicroArch::AmdEpyc7313P, 11);
        let seeds: Vec<u64> = (0..8).map(|l| derive_seed(11, 9, l)).collect();
        let ops = op_pool();
        let run_split = |width: usize| -> Vec<u64> {
            let mut out = Vec::new();
            for block in seeds.chunks(width) {
                let mut batch = CoreBatch::from_template(&template, block);
                for lane in 0..batch.n_lanes() {
                    for step in 0..60u8 {
                        let _ = batch.execute_instr(lane, &ops[(step % 8) as usize], Origin::Host);
                    }
                    out.push(batch.rdpmc(lane, 0).unwrap());
                }
            }
            out
        };
        let whole = run_split(8);
        assert_eq!(whole, run_split(4));
        assert_eq!(whole, run_split(1));
    }

    #[test]
    fn fail_closed_latches_per_lane_like_the_scalar_pmu() {
        let template = programmed_template(MicroArch::AmdEpyc7252, 21);
        let seeds: Vec<u64> = (0..4).map(|l| derive_seed(21, 5, l)).collect();
        let mut batch = CoreBatch::from_template(&template, &seeds);
        let load = well_known(WellKnown::Load64);
        for lane in 0..4 {
            for _ in 0..20 {
                batch.execute_instr(lane, &load, Origin::Host).unwrap();
            }
        }
        // Latch lanes 1 and 3 only.
        batch.set_fail_closed(1, true);
        batch.set_fail_closed(3, true);
        for lane in [1usize, 3] {
            assert!(batch.fail_closed(lane));
            assert_eq!(batch.rdpmc(lane, 0).unwrap(), 0, "latched lane reads 0");
        }
        for lane in [0usize, 2] {
            assert!(batch.rdpmc(lane, 0).unwrap() > 0, "open lane reads through");
        }
        // Latched reads consumed no draws: after release, lane 1's first
        // real read equals the scalar twin's first read.
        batch.set_fail_closed(1, false);
        let mut twin = template.clone();
        twin.reseed(seeds[1]);
        for _ in 0..20 {
            twin.execute_instr(&load, Origin::Host).unwrap();
        }
        assert_eq!(batch.rdpmc(1, 0).unwrap(), twin.pmu().rdpmc(0).unwrap());
    }

    #[test]
    fn unwindowed_execution_advances_state_but_not_window_sums() {
        let template = programmed_template(MicroArch::AmdEpyc7252, 31);
        let seeds = [derive_seed(31, 1, 0)];
        let mut batch = CoreBatch::from_template(&template, &seeds);
        let cpuid = well_known(WellKnown::Cpuid);
        let load = well_known(WellKnown::Load64);
        batch.execute_unwindowed(0, &cpuid, Origin::Host).unwrap();
        assert!(batch.window_all(0).is_zero(), "fence leaked into window");
        assert_eq!(batch.steps(0), 1, "fence must count as a step");
        batch.execute_instr(0, &load, Origin::Host).unwrap();
        assert!(batch.window_all(0)[Feature::Loads] > 0.0);
        // Fences still feed the counters.
        assert!(batch.rdpmc(0, 0).unwrap() > 0);
        let serial = batch.window_all(0)[Feature::Serializations];
        assert_eq!(serial, 0.0, "CPUID delta must stay out of the window");
    }

    /// Lane-group invariant: `from_core_state` lanes are exact mid-stream
    /// twins of the core — same draw positions, noise base, counters —
    /// not fresh reseeds, so every lane replays the core's future
    /// bit-identically.
    #[test]
    fn from_core_state_lanes_are_mid_stream_twins() {
        let ops = op_pool();
        for &arch in &[MicroArch::AmdEpyc7252, MicroArch::IntelXeonE5_1650] {
            let mut core = programmed_template(arch, 77);
            // Advance the core mid-stream: consume exec draws, fold
            // counter state, consume a measurement-noise draw.
            for step in 0..23u8 {
                let _ = core.execute_instr(&ops[(step % 8) as usize], Origin::Host);
            }
            let _ = core.pmu().rdpmc(0);
            let mut batch = CoreBatch::from_core_state(&core, 3);
            for lane in 0..3 {
                let mut twin = core.clone();
                for step in 0..40u8 {
                    let origin = if step % 3 == 0 {
                        Origin::Guest(1)
                    } else {
                        Origin::Host
                    };
                    let s = twin.execute_instr(&ops[(step % 8) as usize], origin);
                    let b = batch.execute_instr(lane, &ops[(step % 8) as usize], origin);
                    assert_eq!(s, b, "mid-stream lane diverged from clone");
                }
                assert_eq!(twin.cycles(), batch.cycles(lane));
                assert_eq!(twin.pmu().rdpmc(0), batch.rdpmc(lane, 0));
            }
        }
    }

    #[test]
    fn reset_from_core_state_reuses_the_arena_bit_identically() {
        let ops = op_pool();
        let mut core = programmed_template(MicroArch::AmdEpyc7313P, 5);
        for step in 0..17u8 {
            let _ = core.execute_instr(&ops[(step % 8) as usize], Origin::Host);
        }
        let run = |batch: &mut CoreBatch| -> Vec<u64> {
            (0..batch.n_lanes())
                .map(|lane| {
                    for step in 0..30u8 {
                        let _ = batch.execute_instr(lane, &ops[(step % 8) as usize], Origin::Host);
                    }
                    batch.rdpmc(lane, 0).unwrap()
                })
                .collect()
        };
        // An arena that ran a seeded candidate first, then is reset onto
        // core state, must equal a fresh lane-group batch.
        let mut reused = CoreBatch::from_template(&core, &[1, 2, 3, 4, 5, 6]);
        let _ = run(&mut reused);
        reused.reset_from_core_state(&core, 4);
        let mut fresh = CoreBatch::from_core_state(&core, 4);
        assert_eq!(run(&mut reused), run(&mut fresh));
    }

    /// A core that ran `k` mixes, a lane snapshot of it from before those
    /// mixes moved `k` mixes ahead, and the same earlier core skipping
    /// them with their cycles: all three are at one timeline position.
    #[test]
    fn skip_mixes_starts_where_running_them_ends() {
        let mix = ActivityVector::from_pairs(&[
            (Feature::UopsRetired, 300.0),
            (Feature::Cycles, 500.0),
            (Feature::Loads, 40.0),
        ]);
        for arch in MicroArch::ALL {
            let start = Core::new(arch, 9); // noisy interference: IRQs fire
            let mut ran = start.clone();
            for k in 0..37 {
                ran.run_mix(&mix, 20_000 + 1_000 * k, Origin::Guest(1));
            }
            let ran_cycles = ran.cycles() - start.cycles();
            let want = ran.run_mix(&mix, 100_000, Origin::Host).0.map(f64::to_bits);

            let mut lane = CoreBatch::from_core_state(&start, 1);
            lane.skip_mixes(0, 37);
            let got = lane.run_mix(0, &mix, 100_000, Origin::Host);
            assert_eq!(got.0.map(f64::to_bits), want);

            let mut skipped = start.clone();
            skipped.skip_mixes(37, ran_cycles);
            let got = skipped.run_mix(&mix, 100_000, Origin::Host);
            assert_eq!(got.0.map(f64::to_bits), want);
            assert_eq!(skipped.cycles(), ran.cycles());
        }
    }

    #[test]
    #[should_panic(expected = "programmed counter")]
    fn skip_mixes_refuses_a_core_with_programmed_counters() {
        programmed_template(MicroArch::AmdEpyc7252, 1).skip_mixes(1, 0);
    }

    #[test]
    fn clear_slot_mirrors_pmu_clear() {
        let template = programmed_template(MicroArch::AmdEpyc7252, 51);
        let mut batch = CoreBatch::from_core_state(&template, 2);
        assert!(batch.programmed_event(0).is_some());
        batch.clear_slot(0);
        assert_eq!(batch.programmed_event(0), None);
        assert_eq!(batch.rdpmc(0, 0), Err(PmuError::Unprogrammed(0)));
        // Out-of-range clears are ignored, exactly like `Pmu::clear`.
        batch.clear_slot(COUNTER_SLOTS + 3);
    }

    #[test]
    fn program_and_bad_slot_errors_match_pmu_semantics() {
        let template = programmed_template(MicroArch::AmdEpyc7252, 41);
        let mut batch = CoreBatch::from_template(&template, &[1, 2]);
        let ev = template.catalog().lookup(named::RETIRED_UOPS).unwrap();
        let cfg = CounterConfig {
            event: ev,
            filter: OriginFilter::Any,
        };
        assert_eq!(batch.program(9, cfg), Err(PmuError::BadSlot(9)));
        assert_eq!(batch.rdpmc(0, 9), Err(PmuError::BadSlot(9)));
        assert_eq!(batch.rdpmc(0, 1), Err(PmuError::Unprogrammed(1)));
        let bogus = crate::events::EventId(999_999);
        assert_eq!(
            batch.program(
                1,
                CounterConfig {
                    event: bogus,
                    filter: OriginFilter::Any
                }
            ),
            Err(PmuError::UnknownEvent(bogus))
        );
        batch.program(1, cfg).unwrap();
        assert_eq!(batch.rdpmc(0, 1).unwrap(), 0);
    }
}
