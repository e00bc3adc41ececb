//! The core engine: N independent sessions of the same processor model
//! executed as contiguous lanes. A [`Core`] is one lane.
//!
//! The repo's hot loops — fuzzer confirm-reps, dataset collection — all
//! have the shape "run the same gadget session N times under different
//! seeds". Object-at-a-time, each session costs a full [`Core`] clone, a
//! per-step `Vec` push into the activity log, and a re-fold pass at the
//! end. [`CoreBatch`] flattens all of that: one arena of fixed-size lane
//! records (counter and window accumulators as [`ActivityVector`] rows,
//! the data-page cache as three `u64` words, the branch table as one
//! byte row), reused across candidates via
//! [`CoreBatch::reset_from_core_state`] plus a per-lane
//! [`CoreBatch::reseed`], with deltas folded straight into counter rows
//! (and, for windowed steps, window rows) as they are produced.
//!
//! # One engine
//!
//! There is one definition of the per-session state, the counters and
//! the step semantics: a [`Core`] holds a one-lane batch, and every
//! lane of a wider batch runs the same code. Lane `l` of a batch seeded
//! `from_core_state(core, n)` + `reseed(l, s)` is therefore bit-identical
//! to `core.clone()` + `reseed(s)` driven through the same calls:
//!
//! * every step executes through the same [`instr_step`]/[`mix_step`]
//!   kernels in `core.rs` (single definition of instruction semantics);
//! * execution noise is keyed `(seed, site, instance)` through
//!   `derive_seed`, so a lane's draws depend only on its own call
//!   sequence — never on other lanes, batch width, or execution order;
//! * counter reads funnel through [`read_counter`], the single definition
//!   of response + noise + truncation arithmetic;
//! * accumulator folds are `ActivityVector` adds, component-wise in
//!   feature order.
//!
//! Property tests at the bottom of this file check lanes of wide batches
//! against one-lane twins on all [`MicroArch::ALL`] models, and
//! `tests/engine_pin.rs` pins whole sessions against digests.

use crate::activity::{ActivityVector, Feature, Origin};
use crate::arch::MicroArch;
use crate::cache::DataPageCache;
use crate::core::{
    instr_step, irq_activity, mix_scale, mix_step, Core, ExecDraws, LaneCtx, BRANCH_SLOTS,
};
use crate::core::{DrawSource, ExecError, InstrOutcome, InterferenceConfig, MixOutcome};
use crate::events::{EventCatalog, EventId};
use crate::pmu::{CounterBank, CounterConfig, PmuError, COUNTER_SLOTS};
use crate::rand_util::PoissonLimit;
use crate::response::{noise_base_for_seed, read_counter, ResponseMatrix};
use aegis_isa::InstructionSpec;
use std::sync::Arc;

/// Per-slot counter programming shared by every lane (the fuzzer programs
/// all sessions of a candidate identically; per-lane state lives in the
/// accumulator rows).
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

/// One lane's counter register: the raw accumulation of a programmed slot
/// and the measurement-noise draws its reads consumed.
#[derive(Debug, Clone, Copy)]
struct CounterRow {
    acc: ActivityVector,
    draws: u64,
}

impl CounterRow {
    const ZERO: CounterRow = CounterRow {
        acc: ActivityVector::ZERO,
        draws: 0,
    };
}

/// Everything one session owns, kept in one place so a step touches one
/// contiguous block: keyed execution-noise streams, measurement-noise
/// base, data-page cache (three `u64` words), branch-predictor table,
/// cycles, step count, fail-closed latch, counter rows and window sums.
#[derive(Debug, Clone, Copy)]
struct Lane {
    draws: ExecDraws,
    noise_base: u64,
    cache: DataPageCache,
    branch: [u8; BRANCH_SLOTS],
    cycles: u64,
    /// Executed-step count (instruction + IRQ deltas), the analogue of a
    /// core's activity-log length.
    steps: usize,
    /// While latched, guest-visible counters read 0 and consume no noise
    /// draw — degraded output is *absent*, never clean.
    fail_closed: bool,
    /// Counter rows, one per slot; meaningful while the slot is
    /// programmed.
    counters: [CounterRow; COUNTER_SLOTS],
    /// Current-window activity sums, all origins.
    win_all: ActivityVector,
    /// Current-window activity sums, host-origin deltas only.
    win_host: ActivityVector,
}

/// A batch of independent core sessions, one lane record each.
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
    /// `exp(-λ)` memo of the mix steps' interrupt draws (λ is shared by
    /// every lane: one interference config, one step length).
    poisson_limit: PoissonLimit,
    /// Counter programming, shared across lanes.
    slots: [Option<SlotTemplate>; COUNTER_SLOTS],
    lanes: Vec<Lane>,
    /// Memoized fenced-window replays, shared across lanes (templates are
    /// draw-free and keyed by everything lane-specific they read).
    win_templates: Vec<(WinKey, Option<WindowTemplate>)>,
    /// Index into `win_templates` of the most recently used entry — the
    /// recording protocol repeats one window across lanes and reps, so
    /// this one-entry memo turns the common lookup into a single compare.
    last_template: usize,
}

impl CoreBatch {
    /// Cache-friendly tile width: drivers that want more sessions than
    /// this in flight should run them as consecutive tiles of at most
    /// `TILE_LANES` lanes rather than one wide batch. The lane records
    /// (counter rows, window sums, branch tables) for 32 lanes fit
    /// comfortably in L2; at 128 lanes they start missing, which is
    /// exactly the batched-128 regression BENCH_core.json once showed.
    /// Lanes are fully independent, so any tiling of N sessions produces
    /// bit-identical per-session results.
    pub const TILE_LANES: usize = 32;

    /// One fresh lane seeded with `seed`: cold cache, weakly-not-taken
    /// predictor, no counter programmed — the state behind
    /// [`Core::with_catalog`].
    pub(crate) fn one_lane(arch: MicroArch, catalog: Arc<EventCatalog>, seed: u64) -> Self {
        CoreBatch {
            arch,
            matrix: ResponseMatrix::shared(catalog.arch()),
            catalog,
            interference: InterferenceConfig::default(),
            poisson_limit: PoissonLimit::new(),
            slots: [None; COUNTER_SLOTS],
            lanes: vec![Lane {
                draws: ExecDraws::new(seed),
                noise_base: noise_base_for_seed(seed),
                cache: DataPageCache::cold(),
                branch: [1; BRANCH_SLOTS],
                cycles: 0,
                steps: 0,
                fail_closed: false,
                counters: [CounterRow::ZERO; COUNTER_SLOTS],
                win_all: ActivityVector::ZERO,
                win_host: ActivityVector::ZERO,
            }],
            win_templates: Vec::new(),
            last_template: 0,
        }
    }

    /// Builds a batch whose lanes all start as **exact mid-stream copies**
    /// of `core` — draw-stream positions, measurement-noise base, cache,
    /// branch table, cycles, fail-closed latch, and counter state are
    /// replicated verbatim. Follow with [`CoreBatch::reseed`] per lane to
    /// run independent sessions from the same state (the fuzzer's
    /// candidate lanes); without it every lane replays the core's future
    /// and diverges only through the per-lane activity sources a driver
    /// attaches (the host's lane groups).
    ///
    /// Lane `l` is bit-identical to `core.clone()` driven through the same
    /// calls — the invariant the `aegis-sev` proptests pin against
    /// `Host::record_trace` on detached forks.
    pub fn from_core_state(core: &Core, n_lanes: usize) -> Self {
        let mut batch = core.lane.clone();
        batch.reset_from_core_state(core, n_lanes);
        batch
    }

    /// Re-fills the batch as `n_lanes` exact mid-stream copies of `core`
    /// without releasing the arena: the lane buffer is truncated/extended
    /// in place, so driving thousands of fuzzer candidates through one
    /// `CoreBatch` performs no steady-state allocation (see
    /// [`CoreBatch::from_core_state`]).
    pub fn reset_from_core_state(&mut self, core: &Core, n_lanes: usize) {
        let src = &core.lane;
        self.arch = src.arch;
        self.catalog = Arc::clone(&src.catalog);
        self.matrix = Arc::clone(&src.matrix);
        self.interference = src.interference;
        self.slots = src.slots;
        let lane = Lane {
            steps: 0,
            win_all: ActivityVector::ZERO,
            win_host: ActivityVector::ZERO,
            ..src.lanes[0]
        };
        self.lanes.clear();
        self.lanes.resize(n_lanes, lane);
        // Templates capture the interference config; a reset may change it.
        self.win_templates.clear();
        self.last_template = 0;
    }

    /// Reseeds a lane's execution-noise streams and measurement-noise
    /// base exactly as if its state had been built from `seed`. Cache,
    /// branch predictor, counters and cycle count are kept, so
    /// `from_core_state(core, n)` + `reseed(l, s)` equals `core.clone()`
    /// + `reseed(s)`.
    pub fn reseed(&mut self, lane: usize, seed: u64) {
        let l = &mut self.lanes[lane];
        l.draws = ExecDraws::new(seed);
        l.noise_base = noise_base_for_seed(seed);
    }

    /// The shared event catalog (same handle as the source core's).
    pub fn catalog(&self) -> Arc<EventCatalog> {
        Arc::clone(&self.catalog)
    }

    /// The processor model.
    pub fn arch(&self) -> MicroArch {
        self.arch
    }

    /// The shared interference model.
    pub(crate) fn interference(&self) -> InterferenceConfig {
        self.interference
    }

    /// Replaces the interference model of every lane.
    pub(crate) fn set_interference(&mut self, cfg: InterferenceConfig) {
        self.interference = cfg;
        // Templates capture the interference config.
        self.win_templates.clear();
        self.last_template = 0;
    }

    /// Unhalted cycles executed by a lane.
    pub fn cycles(&self, lane: usize) -> u64 {
        self.lanes[lane].cycles
    }

    /// Activity deltas applied by a lane so far (instruction + IRQ steps),
    /// the analogue of a core's recording length.
    pub fn steps(&self, lane: usize) -> usize {
        self.lanes[lane].steps
    }

    /// Scratch-page lines resident in a lane's L1D.
    pub fn cache_resident_lines(&self, lane: usize) -> usize {
        self.lanes[lane].cache.resident_lines()
    }

    /// Latches (or releases) a lane's fail-closed mode. While latched,
    /// reads of its guest-visible counters return 0 and consume no noise
    /// draws; host-only software events keep reading normally, as they
    /// carry no guest secrets.
    pub fn set_fail_closed(&mut self, lane: usize, on: bool) {
        self.lanes[lane].fail_closed = on;
    }

    /// Whether a lane's fail-closed latch is set.
    pub fn fail_closed(&self, lane: usize) -> bool {
        self.lanes[lane].fail_closed
    }

    /// Applies one delta to a lane's counter rows and, for a windowed
    /// step, its window sums. Guest-origin activity only moves
    /// guest-visible events — the SEV observability boundary: hardware
    /// events fire for sealed guests while host software events and most
    /// tracepoints do not.
    #[inline]
    fn apply(&mut self, lane: usize, delta: &ActivityVector, origin: Origin, windowed: bool) {
        let l = &mut self.lanes[lane];
        for (slot, row) in self.slots.iter().zip(&mut l.counters) {
            let Some(t) = slot else { continue };
            if t.config.filter.matches(origin) && (t.guest_visible || !origin.is_guest()) {
                row.acc += *delta;
            }
        }
        l.steps += 1;
        if windowed {
            l.win_all += *delta;
            if !origin.is_guest() {
                l.win_host += *delta;
            }
        }
    }

    /// Executes one instruction on a lane: the kernel's outcome, applied
    /// to the lane (an interrupt's activity first, as it preempts the
    /// instruction's retirement). Inlined so each caller's constant
    /// `windowed` folds away: a `Core` step is the plain counter fold.
    #[inline]
    pub(crate) fn step_instr(
        &mut self,
        lane: usize,
        spec: &InstructionSpec,
        origin: Origin,
        windowed: bool,
    ) -> Result<InstrOutcome, ExecError> {
        let l = &mut self.lanes[lane];
        let mut ctx = LaneCtx {
            cache: &mut l.cache,
            branch_table: &mut l.branch,
            draws: &mut l.draws,
        };
        let out = instr_step(spec, &self.interference, &mut ctx)?;
        l.cycles += out.cycles;
        if out.irq {
            self.apply(lane, irq_activity(), Origin::Host, windowed);
        }
        self.apply(lane, &out.delta, origin, windowed);
        Ok(out)
    }

    /// Executes one instruction on a lane, folding its activity into the
    /// current window (bit-equal to [`Core::execute_instr`] on the lane's
    /// one-lane twin, which folds no window).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the variant is illegal or privileged.
    pub fn execute_instr(
        &mut self,
        lane: usize,
        spec: &InstructionSpec,
        origin: Origin,
    ) -> Result<ActivityVector, ExecError> {
        self.step_instr(lane, spec, origin, true)
            .map(|out| out.delta)
    }

    /// Executes one instruction on a lane *outside* the current window:
    /// state, counters, steps, and draws all advance, but the delta is not
    /// folded into the window sums. This is the fence path of the fuzzer's
    /// measurement protocol (serializing CPUID before/after each window).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the variant is illegal or privileged.
    pub fn execute_unwindowed(
        &mut self,
        lane: usize,
        spec: &InstructionSpec,
        origin: Origin,
    ) -> Result<ActivityVector, ExecError> {
        self.step_instr(lane, spec, origin, false)
            .map(|out| out.delta)
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

        self.lanes[lane].win_all = ActivityVector::ZERO;
        self.lanes[lane].win_host = ActivityVector::ZERO;
        let _ = self.step_instr(lane, fence, origin, false);
        for spec in seq {
            let _ = self.step_instr(lane, spec, origin, true);
        }
        let _ = self.step_instr(lane, fence, origin, false);
        let Lane {
            win_all: all,
            win_host: host,
            ..
        } = &self.lanes[lane];
        let mut support = 0u32;
        for i in 0..Feature::COUNT {
            if all.0[i] != 0.0 || host.0[i] != 0.0 {
                support |= 1 << i;
            }
        }
        out.extend_from_slice(&all.0);
        out.extend_from_slice(&host.0);
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
        let l = &mut self.lanes[lane];
        let key = WinKey::new(fence, seq, l.cache.low_lines_key());
        // One-entry memo first: the protocol repeats one window across
        // lanes and reps, so the full scan is rare.
        let idx = match self.win_templates.get(self.last_template) {
            Some((k, _)) if *k == key => self.last_template,
            _ => match self.win_templates.iter().position(|(k, _)| *k == key) {
                Some(i) => i,
                None => {
                    let tpl = build_window_template(fence, seq, l.cache, &self.interference);
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
        let saved = l.draws;
        let mut fired = false;
        for _ in 0..tpl.n_dtlb {
            fired |= l.draws.dtlb_misses(tpl.p_dtlb);
        }
        for _ in 0..tpl.n_irq {
            fired |= l.draws.irq_fires(tpl.p_irq);
        }
        if fired {
            l.draws = saved;
            return None;
        }
        // The template sum IS the fold the live path would have produced
        // on zeroed window rows, so appending it verbatim is bit-exact;
        // with no guest steps the host fold reuses the full fold, exactly
        // like the scalar recorder.
        out.extend_from_slice(&tpl.sum.0);
        out.extend_from_slice(&tpl.sum.0);
        l.cycles += tpl.cycles;
        l.steps += tpl.steps;
        l.cache.adopt_low_lines(&tpl.cache_after);
        Some(tpl.support)
    }

    /// Applies `dur_ns` of a rate-based mix to a lane: the kernel's
    /// outcome, applied to the lane's counters (the mix's own activity
    /// first, then its interrupts). Mixes feed no window.
    pub(crate) fn step_mix(
        &mut self,
        lane: usize,
        rate: &ActivityVector,
        dur_ns: u64,
        origin: Origin,
    ) -> MixOutcome {
        let l = &mut self.lanes[lane];
        let out = mix_step(
            rate,
            dur_ns,
            &self.interference,
            &mut l.draws,
            &mut self.poisson_limit,
        );
        l.cycles += out.delta[Feature::Cycles] as u64;
        self.apply(lane, &out.delta, origin, false);
        if out.n_irq > 0 {
            let irq = irq_activity().scaled(out.n_irq as f64);
            self.apply(lane, &irq, Origin::Host, false);
        }
        out
    }

    /// [`CoreBatch::step_mix`] projected onto the lane's cycle count, for
    /// a lane whose counters and log cannot see the mix (see
    /// [`Core::tick_mix`]): the same jitter instance and cycles, the
    /// Poisson instance skipped, no step counted.
    pub(crate) fn step_mix_cycles(&mut self, lane: usize, rate: &ActivityVector, dur_ns: u64) {
        let l = &mut self.lanes[lane];
        let scale = mix_scale(dur_ns as f64 / 1_000.0, &self.interference, &mut l.draws);
        l.draws.skip_poisson();
        l.cycles += (rate[Feature::Cycles] * scale) as u64;
    }

    /// Whether no counter slot is programmed.
    pub(crate) fn unprogrammed(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// Applies `dur_ns` of a rate-based activity mix to a lane (bit-equal
    /// to [`Core::run_mix`] on the lane's one-lane twin). The mix feeds
    /// the lane's counters, not its window sums.
    pub fn run_mix(
        &mut self,
        lane: usize,
        rate: &ActivityVector,
        dur_ns: u64,
        origin: Origin,
    ) -> ActivityVector {
        self.step_mix(lane, rate, dur_ns, origin).delta
    }

    /// Starts a lane `steps` mix steps further along its noise streams:
    /// the position `steps` [`CoreBatch::run_mix`] calls would leave it
    /// at, without executing them. A lane snapshot of a core can thereby
    /// begin where the core's own timeline would be after mixes run by
    /// other lanes (the counterpart of [`Core::skip_mixes`]).
    pub fn skip_mixes(&mut self, lane: usize, steps: u64) {
        self.lanes[lane].draws.skip_mixes(steps);
    }

    /// Adds unhalted cycles a lane spent elsewhere (see
    /// [`Core::skip_mixes`]).
    pub(crate) fn add_cycles(&mut self, lane: usize, cycles: u64) {
        self.lanes[lane].cycles += cycles;
    }

    /// Flushes a lane's scratch data page (mirrors [`Core::reset_cache`]).
    pub fn reset_cache(&mut self, lane: usize) {
        self.lanes[lane].cache = DataPageCache::cold();
    }

    /// A lane's current window sum over all origins. The fold is the same
    /// `ActivityVector` add, in the same step order, as summing the
    /// windowed steps a core's activity log records — bit-identical by
    /// construction.
    pub fn window_all(&self, lane: usize) -> ActivityVector {
        self.lanes[lane].win_all
    }

    /// A lane's current window sum restricted to host-origin deltas.
    pub fn window_host(&self, lane: usize) -> ActivityVector {
        self.lanes[lane].win_host
    }
}

/// A batch is an n-lane counter bank; a [`Core`] is a one-lane one.
impl CounterBank for CoreBatch {
    fn n_lanes(&self) -> usize {
        self.lanes.len()
    }

    fn noise_base(&self, lane: usize) -> u64 {
        self.lanes[lane].noise_base
    }

    fn has_event(&self, event: EventId) -> bool {
        self.catalog.get(event).is_some()
    }

    fn program(&mut self, slot: usize, config: CounterConfig) -> Result<(), PmuError> {
        if slot >= COUNTER_SLOTS {
            return Err(PmuError::BadSlot(slot));
        }
        if !self.has_event(config.event) {
            return Err(PmuError::UnknownEvent(config.event));
        }
        self.slots[slot] = Some(SlotTemplate {
            config,
            guest_visible: self.matrix.guest_visible(config.event),
        });
        for lane in &mut self.lanes {
            lane.counters[slot] = CounterRow::ZERO;
        }
        Ok(())
    }

    fn clear_slot(&mut self, slot: usize) {
        if let Some(s) = self.slots.get_mut(slot) {
            *s = None;
        }
    }

    fn programmed_event(&self, slot: usize) -> Option<EventId> {
        self.slots.get(slot)?.as_ref().map(|t| t.config.event)
    }

    /// Reads a lane's programmed counter: the fail-closed gate, then one
    /// noise draw over the raw accumulation.
    fn rdpmc(&mut self, lane: usize, slot: usize) -> Result<u64, PmuError> {
        if slot >= COUNTER_SLOTS {
            return Err(PmuError::BadSlot(slot));
        }
        let t = self.slots[slot].ok_or(PmuError::Unprogrammed(slot))?;
        let l = &mut self.lanes[lane];
        if l.fail_closed && t.guest_visible {
            return Ok(0);
        }
        let row = &mut l.counters[slot];
        let draw = row.draws;
        row.draws += 1;
        Ok(read_counter(
            &self.matrix,
            t.config.event,
            l.noise_base,
            draw,
            &row.acc,
        ))
    }

    /// Zeroes the accumulation; the noise stream continues from its
    /// current draw index, like a real counter reset.
    fn reset_value(&mut self, lane: usize, slot: usize) {
        if slot < COUNTER_SLOTS && self.slots[slot].is_some() {
            self.lanes[lane].counters[slot].acc = ActivityVector::ZERO;
        }
    }
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
        core.program(
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
            core.program(
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

    /// Lanes copied from `template`, lane `l` reseeded with `seeds[l]` —
    /// the fuzzer's candidate sessions.
    fn seeded(template: &Core, seeds: &[u64]) -> CoreBatch {
        let mut batch = CoreBatch::from_core_state(template, seeds.len());
        for (lane, &seed) in seeds.iter().enumerate() {
            batch.reseed(lane, seed);
        }
        batch
    }

    /// Drives a one-lane twin (`template.clone()` + `reseed(seed)`) and
    /// one lane of a wider batch through the same session script and
    /// asserts bit-identical observables at every checkpoint. The lane's
    /// window sums must equal the fold of the twin's logged instruction
    /// steps: mixes feed counters, not windows.
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
        // Per logged step: whether the batch lane folds it into its window.
        let mut windowed = Vec::new();
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
                    scalar.reset_value(0, 0);
                    batch.reset_value(lane, 0);
                }
                _ => {
                    assert_eq!(scalar.rdpmc(0, 0), batch.rdpmc(lane, 0), "rdpmc diverged");
                }
            }
            windowed.resize(scalar.recording_len(), step % 12 != 8);
        }
        assert_eq!(scalar.cycles(), batch.cycles(lane), "cycles diverged");
        assert_eq!(
            scalar.cache_resident_lines(),
            batch.cache_resident_lines(lane),
            "cache diverged"
        );
        assert_eq!(scalar.rdpmc(0, 0), batch.rdpmc(lane, 0));
        assert_eq!(scalar.rdpmc(0, 2), batch.rdpmc(lane, 2));
        let log = scalar.take_recording();
        assert_eq!(log.len(), batch.steps(lane), "step count diverged");
        let mut all = ActivityVector::ZERO;
        let mut host = ActivityVector::ZERO;
        for ((origin, delta), _) in log.iter().zip(&windowed).filter(|(_, w)| **w) {
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

        /// One-engine invariant: every lane of a width-n batch is
        /// bit-identical to a reseeded one-lane clone of the template on
        /// every model.
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
            let mut batch = seeded(&template, &seeds);
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
        let mut reused = seeded(&template, &seeds_a);
        let _ = run(&mut reused);
        reused.reset_from_core_state(&template, seeds_b.len());
        for (lane, &seed) in seeds_b.iter().enumerate() {
            reused.reseed(lane, seed);
        }
        let mut fresh = seeded(&template, &seeds_b);
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
                let mut batch = seeded(&template, block);
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
        let mut batch = seeded(&template, &seeds);
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
        assert_eq!(batch.rdpmc(1, 0).unwrap(), twin.rdpmc(0, 0).unwrap());
    }

    #[test]
    fn unwindowed_execution_advances_state_but_not_window_sums() {
        let template = programmed_template(MicroArch::AmdEpyc7252, 31);
        let seeds = [derive_seed(31, 1, 0)];
        let mut batch = seeded(&template, &seeds);
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
        // A mix feeds the counters and not the window.
        let window = batch.window_all(0);
        let steps = batch.steps(0);
        batch.reset_value(0, 0);
        let mix = ActivityVector::from_pairs(&[(Feature::UopsRetired, 500.0)]);
        batch.run_mix(0, &mix, 10_000, Origin::Host);
        assert!(batch.rdpmc(0, 0).unwrap() > 0, "mix must feed the counter");
        assert!(batch.steps(0) > steps, "a mix counts as a step");
        assert_eq!(
            batch.window_all(0).0.map(f64::to_bits),
            window.0.map(f64::to_bits),
            "mix leaked into the window"
        );
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
            let _ = core.rdpmc(0, 0);
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
                assert_eq!(twin.rdpmc(0, 0), batch.rdpmc(lane, 0));
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
        let mut reused = seeded(&core, &[1, 2, 3, 4, 5, 6]);
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
        // Out-of-range clears are ignored, exactly as on a core.
        batch.clear_slot(COUNTER_SLOTS + 3);
    }

    #[test]
    fn program_and_bad_slot_errors_match_pmu_semantics() {
        let template = programmed_template(MicroArch::AmdEpyc7252, 41);
        let mut batch = seeded(&template, &[1, 2]);
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
