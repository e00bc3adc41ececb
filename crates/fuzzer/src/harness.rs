//! The measurement harness: executes candidate gadgets under controlled
//! conditions and reads the target HPC event with RDPMC.
//!
//! Mirrors the paper's setup (Section VI-D): the fuzzing process is pinned
//! to an isolated core, all memory operands point at a pre-allocated data
//! page (the simulator's scratch page), serializing CPUID instructions
//! fence the measured region, and each measurement is repeated with the
//! median taken to suppress external interference.

use aegis_attack_stats::median;
use aegis_isa::{well_known, InstrId, InstructionSpec, IsaCatalog, WellKnown};
use aegis_microarch::{
    read_counter, ActivityVector, Core, CoreBatch, CounterBank, CounterConfig, EventId, Feature,
    Origin, OriginFilter, ResponseMatrix,
};
use serde::{Deserialize, Serialize};

/// Minimal median helper, private to the fuzzer (avoids a dependency on
/// the attack crate for one function).
///
/// Selection instead of a full sort: the median of `reps` counter reads
/// sits on the generation-gate hot path of every (event, candidate) pair,
/// and `select_nth_unstable` is measurably cheaper than sorting ten
/// elements with a comparator. Counter reads are non-negative finite
/// (quantized `u64` values), so `f64::max` over the lower partition is
/// exact and the result is value-identical to the sort-based median.
mod aegis_attack_stats {
    pub fn median(xs: &mut [f64]) -> f64 {
        let n = xs.len();
        if n == 0 {
            return 0.0;
        }
        let mid = n / 2;
        let (below, at_mid, _) = xs.select_nth_unstable_by(mid, f64::total_cmp);
        if n % 2 == 1 {
            *at_mid
        } else {
            let hi = *at_mid;
            let lo = below.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (lo + hi) / 2.0
        }
    }
}

/// Counter slot the harness reserves for the event under test.
const SLOT: usize = 0;

/// Programs the target event on the harness slot.
///
/// # Panics
///
/// Panics if the event is unknown on the core.
pub fn program_event(core: &mut Core, event: EventId) {
    core.program(
        SLOT,
        CounterConfig {
            event,
            filter: OriginFilter::Any,
        },
    )
    .expect("profiled event must exist on this core");
}

/// Executes one instruction sequence between serializing fences and
/// returns the counter delta (one "measurement" in the paper's protocol):
/// serialize, zero the counter (WRMSR), run the sequence, read (RDPMC),
/// serialize. One counter read — and therefore one measurement-noise
/// draw — per window.
///
/// Faulting instructions contribute nothing; the harness skips them the
/// way the real prolog/epilog recovers from SIGILL.
pub fn measure_once(core: &mut Core, catalog: &IsaCatalog, seq: &[InstrId]) -> f64 {
    let cpuid = well_known(WellKnown::Cpuid);
    let _ = core.execute_instr(&cpuid, Origin::Host);
    core.reset_value(0, SLOT);
    for &id in seq {
        if let Some(spec) = catalog.get(id) {
            let _ = core.execute_instr(spec, Origin::Host);
        }
    }
    let delta = core.rdpmc(0, SLOT).expect("slot programmed") as f64;
    let _ = core.execute_instr(&cpuid, Origin::Host);
    delta
}

/// Repeats [`measure_once`] `reps` times and returns the median delta —
/// the paper's noise-suppression protocol with `reps = 10`.
pub fn measure_median(core: &mut Core, catalog: &IsaCatalog, seq: &[InstrId], reps: usize) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| measure_once(core, catalog, seq))
        .collect();
    median(&mut samples)
}

/// Runs a sequence `r` times inside one window, returning the per-
/// iteration deltas (for the repeated-triggers confirmation of Fig. 6).
pub fn measure_repeated(
    core: &mut Core,
    catalog: &IsaCatalog,
    seq: &[InstrId],
    r: usize,
) -> Vec<f64> {
    (0..r).map(|_| measure_once(core, catalog, seq)).collect()
}

/// Flat f64s per recorded window: the all-origins fold followed by the
/// host-only fold, `Feature::COUNT` values each.
///
/// Two folds are kept because the SEV observability boundary partitions
/// events into two accumulation behaviours: guest-visible counters fold
/// every step, guest-invisible counters fold only host-origin steps. The
/// folds use the same component-wise `+=` in the same step order as a
/// live counter row, so the sums are bit-identical to what a programmed
/// counter would have accumulated.
const WINDOW_STRIDE: usize = 2 * Feature::COUNT;

/// A recorded measurement session: per-window activity sums at the
/// fence-delimited positions where the scalar protocol resets and reads
/// the counter, stored flat (`WINDOW_STRIDE` f64s per window) so the
/// batched recorder's `finish` is a buffer move rather than a re-copy.
///
/// Recording pays the core simulation once; any number of events can then
/// be evaluated against the trace through the dense response kernel
/// ([`TraceEval`]) — one matrix row dot and one noise draw per window,
/// with results bit-identical to having run the scalar [`measure_once`]
/// protocol with that event programmed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordedTrace {
    flat: Vec<f64>,
    steps: usize,
    support: u32,
}

/// An owned session list with a columnar encoding (the orphan rule keeps
/// `Vec<RecordedTrace>` itself from implementing the foreign trait).
///
/// The list stores as two pages mirroring the flat recording layout: one
/// `u64` metadata column (`[n, then per trace: flat length, steps,
/// support]`) and one `f64` column concatenating every trace's window
/// sums — so a checkpoint of thousands of sessions loads as two
/// contiguous reads instead of a JSON tree per window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceLog(pub Vec<RecordedTrace>);

impl aegis_par::RowLog for TraceLog {
    type Row = RecordedTrace;

    fn of(rows: &[RecordedTrace]) -> Self {
        TraceLog(rows.to_vec())
    }

    fn into_rows(self) -> Vec<RecordedTrace> {
        self.0
    }
}

impl aegis_par::Columnar for TraceLog {
    fn schema() -> aegis_par::ColumnSchema {
        aegis_par::ColumnSchema::new("fuzzer/recorded-traces", 1)
    }

    fn encode_columns(&self, frame: &mut aegis_par::ColumnFrame) {
        let traces = &self.0;
        let mut meta = Vec::with_capacity(1 + traces.len() * 3);
        meta.push(traces.len() as u64);
        let total: usize = traces.iter().map(|t| t.flat.len()).sum();
        let mut flat = Vec::with_capacity(total);
        for t in traces {
            meta.push(t.flat.len() as u64);
            meta.push(t.steps as u64);
            meta.push(u64::from(t.support));
            flat.extend_from_slice(&t.flat);
        }
        frame.push_u64(meta);
        frame.push_f64(flat);
    }

    fn decode_columns(reader: &mut aegis_par::FrameReader) -> Result<Self, aegis_par::FrameError> {
        use aegis_par::store::usize_from_u64;
        use aegis_par::FrameError;
        let meta = reader.u64s()?;
        let mut flat = reader.f64s()?;
        let (&n, per) = meta
            .split_first()
            .ok_or_else(|| FrameError::new("trace meta column empty"))?;
        let n = usize_from_u64(n, "trace count")?;
        if per.len() != n * 3 {
            return Err(FrameError::new("trace meta column length mismatch"));
        }
        // Traces are split off the *back* of the concatenated page (in
        // reverse), so each trace's buffer is the moved tail allocation —
        // no per-trace copy of the front.
        let mut traces: Vec<RecordedTrace> = Vec::with_capacity(n);
        for chunk in per.chunks_exact(3).rev() {
            let [len, steps, support] = *chunk else {
                unreachable!()
            };
            let len = usize_from_u64(len, "trace flat length")?;
            if len % WINDOW_STRIDE != 0 {
                return Err(FrameError::new("trace length not window aligned"));
            }
            let support =
                u32::try_from(support).map_err(|_| FrameError::new("trace support exceeds u32"))?;
            let at = flat
                .len()
                .checked_sub(len)
                .ok_or_else(|| FrameError::new("trace page shorter than meta claims"))?;
            traces.push(RecordedTrace {
                flat: flat.split_off(at),
                steps: usize_from_u64(steps, "trace steps")?,
                support,
            });
        }
        if !flat.is_empty() {
            return Err(FrameError::new("trace page longer than meta claims"));
        }
        traces.reverse();
        Ok(TraceLog(traces))
    }
}

impl RecordedTrace {
    /// Number of recorded measurement windows.
    pub fn windows(&self) -> usize {
        self.flat.len() / WINDOW_STRIDE
    }

    /// Number of activity steps the recording folded into window sums.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Union feature-support bitmask over every window sum (both the full
    /// and host-only folds). An event whose
    /// [`ResponseMatrix::support`] mask is disjoint from this one reads
    /// exactly zero on every window of the trace — the noise-free zero
    /// path of the read arithmetic — so evaluation can skip the candidate
    /// outright without changing any result.
    pub fn support(&self) -> u32 {
        self.support
    }
}

/// Union feature-support bitmask over a session's flat window sums —
/// shared by the scalar and batched recorders so the two can never drift.
fn support_of(flat: &[f64]) -> u32 {
    let mut mask = 0u32;
    for w in flat.chunks_exact(WINDOW_STRIDE) {
        for i in 0..Feature::COUNT {
            if w[i] != 0.0 || w[Feature::COUNT + i] != 0.0 {
                mask |= 1 << i;
            }
        }
    }
    mask
}

/// Records fenced measurement windows on a core — the write side of the
/// single-pass trace protocol.
#[derive(Debug)]
pub struct TraceRecorder<'a> {
    core: &'a mut Core,
    catalog: &'a IsaCatalog,
    marks: Vec<(usize, usize)>,
}

impl<'a> TraceRecorder<'a> {
    /// Starts recording on the core (discarding any previous recording).
    pub fn begin(core: &'a mut Core, catalog: &'a IsaCatalog) -> Self {
        core.start_recording();
        TraceRecorder {
            core,
            catalog,
            marks: Vec::new(),
        }
    }

    /// Executes one fenced window exactly like [`measure_once`] —
    /// serializing CPUID, the sequence with faulting instructions
    /// skipped, CPUID — and marks the counter-reset and RDPMC positions
    /// of the scalar protocol.
    pub fn window(&mut self, seq: &[InstrId]) {
        let cpuid = well_known(WellKnown::Cpuid);
        let _ = self.core.execute_instr(&cpuid, Origin::Host);
        let reset = self.core.recording_len();
        for &id in seq {
            if let Some(spec) = self.catalog.get(id) {
                let _ = self.core.execute_instr(spec, Origin::Host);
            }
        }
        let read = self.core.recording_len();
        let _ = self.core.execute_instr(&cpuid, Origin::Host);
        self.marks.push((reset, read));
    }

    /// Stops recording and folds the step log into per-window sums.
    pub fn finish(self) -> RecordedTrace {
        let steps = self.core.take_recording();
        let mut flat = Vec::with_capacity(self.marks.len() * WINDOW_STRIDE);
        for &(reset, read) in &self.marks {
            // Same `+=` fold, same step order as a live lane.
            let mut all = ActivityVector::ZERO;
            let mut any_guest = false;
            for (origin, delta) in &steps[reset..read] {
                all += *delta;
                any_guest |= origin.is_guest();
            }
            // With no guest steps the host-only fold is the same
            // sequence of adds, so the full fold is reused verbatim —
            // the common case for host-driven fuzzing windows.
            let host = if any_guest {
                let mut host = ActivityVector::ZERO;
                for (origin, delta) in &steps[reset..read] {
                    if !origin.is_guest() {
                        host += *delta;
                    }
                }
                host
            } else {
                all
            };
            flat.extend_from_slice(&all.0);
            flat.extend_from_slice(&host.0);
        }
        let support = support_of(&flat);
        RecordedTrace {
            flat,
            steps: steps.len(),
            support,
        }
    }
}

/// Records fenced measurement windows on every lane of a [`CoreBatch`]
/// at once — the lane-parallel write side of the single-pass trace
/// protocol.
///
/// Lane `l` of the batch records one candidate's session; the traces
/// returned by [`BatchTraceRecorder::finish`] are bit-identical to what a
/// scalar [`TraceRecorder`] produces on lane `l`'s scalar twin
/// (`template.clone()` + `reseed(seeds[l])`) driven through the same
/// window sequence. The batch folds window sums as it executes, so there
/// is no per-step activity log and no end-of-session re-fold pass.
#[derive(Debug)]
pub struct BatchTraceRecorder<'a> {
    batch: &'a mut CoreBatch,
    catalog: &'a IsaCatalog,
    /// Step counts at `begin`, subtracted so traces count only recorded
    /// steps — the analogue of the scalar recorder's fresh activity log.
    base_steps: Vec<usize>,
    /// Per-lane window sums in window order, flat: each window appends
    /// `2 × Feature::COUNT` values (the all-origins fold, then the
    /// host-only fold). Flat storage keeps the per-window hot path to two
    /// slice appends and moves straight into the trace at `finish`.
    sums: Vec<Vec<f64>>,
    /// Per-lane running support union, folded window by window from
    /// [`CoreBatch::fenced_window`]'s return value — bit-identical to
    /// [`support_of`] over the finished sums, without the finish-time
    /// rescan.
    support: Vec<u32>,
    /// The serializing fence, built once — [`well_known`] allocates its
    /// mnemonic, which must not happen per window.
    fence: InstructionSpec,
    /// Scratch for resolved specs, reused across lanes and windows.
    specs: Vec<&'a InstructionSpec>,
}

/// Flat f64s reserved per lane up front: enough for a typical recording
/// protocol (~64 windows) without reallocating mid-session.
const SUMS_RESERVE: usize = 2 * Feature::COUNT * 64;

impl<'a> BatchTraceRecorder<'a> {
    /// Starts recording on every lane of the batch.
    pub fn begin(batch: &'a mut CoreBatch, catalog: &'a IsaCatalog) -> Self {
        let n = batch.n_lanes();
        let base_steps = (0..n).map(|l| batch.steps(l)).collect();
        BatchTraceRecorder {
            batch,
            catalog,
            base_steps,
            sums: (0..n).map(|_| Vec::with_capacity(SUMS_RESERVE)).collect(),
            support: vec![0; n],
            fence: well_known(WellKnown::Cpuid),
            specs: Vec::new(),
        }
    }

    /// Executes one fenced window on every lane — lane `l` running
    /// `seqs[l]` — exactly like [`TraceRecorder::window`] on each lane's
    /// scalar twin: serializing CPUID, the sequence with faulting
    /// instructions skipped, CPUID. The fences execute outside the window
    /// sums, mirroring the scalar protocol's reset/read marks. Window
    /// execution goes through [`CoreBatch::fenced_window`], whose memoized
    /// replay path makes repeated windows (the whole recording protocol)
    /// cost O(features) instead of a per-instruction re-simulation.
    ///
    /// # Panics
    ///
    /// Panics if `seqs.len()` differs from the batch's lane count.
    pub fn window(&mut self, seqs: &[&[InstrId]]) {
        assert_eq!(seqs.len(), self.batch.n_lanes(), "one sequence per lane");
        let mut resolved: Option<&[InstrId]> = None;
        for (lane, seq) in seqs.iter().enumerate() {
            // The protocol's calibration windows hand every lane the same
            // sequence (often literally the same slice); resolve specs
            // once per distinct sequence instead of once per lane.
            if resolved != Some(*seq) {
                self.specs.clear();
                self.specs
                    .extend(seq.iter().filter_map(|&id| self.catalog.get(id)));
                resolved = Some(*seq);
            }
            self.support[lane] |= self.batch.fenced_window(
                lane,
                &self.fence,
                &self.specs,
                Origin::Host,
                &mut self.sums[lane],
            );
        }
    }

    /// Stops recording and returns one trace per lane, in lane order.
    /// Each lane's flat sum buffer moves into its trace unchanged — no
    /// per-window re-copy.
    pub fn finish(self) -> Vec<RecordedTrace> {
        let BatchTraceRecorder {
            batch,
            base_steps,
            sums,
            support,
            ..
        } = self;
        sums.into_iter()
            .enumerate()
            .map(|(lane, flat)| {
                debug_assert_eq!(support[lane], support_of(&flat));
                RecordedTrace {
                    steps: batch.steps(lane) - base_steps[lane],
                    flat,
                    support: support[lane],
                }
            })
            .collect()
    }
}

/// Evaluates one event's counter against a [`RecordedTrace`] — the read
/// side of the single-pass trace protocol.
///
/// Each window costs one dense-row dot product and (for responding
/// windows) one noise draw; there is no per-instruction work left at
/// evaluation time. Windows are consumed lazily and in order, so an
/// evaluation abandoned after the generation gate never pays for the
/// confirmation windows.
#[derive(Debug)]
pub struct TraceEval<'a> {
    trace: &'a RecordedTrace,
    matrix: &'a ResponseMatrix,
    noise_base: u64,
    event: EventId,
    /// Cached from the matrix so the per-window loop never re-indexes it.
    guest_visible: bool,
    /// Read index of the event's noise stream; the arithmetic per read is
    /// the shared [`aegis_microarch::read_counter`], identical to a live
    /// counter's.
    draws: u64,
    window: usize,
}

impl<'a> TraceEval<'a> {
    /// Prepares to evaluate `event` against `trace`. `noise_base` must be
    /// the recording core's measurement-noise base (the evaluator then
    /// draws the exact noise a counter programmed on that core would
    /// have drawn).
    pub fn new(
        trace: &'a RecordedTrace,
        matrix: &'a ResponseMatrix,
        noise_base: u64,
        event: EventId,
    ) -> Self {
        TraceEval {
            trace,
            matrix,
            noise_base,
            event,
            guest_visible: matrix.guest_visible(event),
            draws: 0,
            window: 0,
        }
    }

    /// Number of windows consumed so far.
    pub fn windows_consumed(&self) -> usize {
        self.window
    }

    /// Returns the next window's counter delta, bit-identical to what the
    /// scalar [`measure_once`] would have read, or `None` when every
    /// recorded window has been consumed.
    pub fn next_window(&mut self) -> Option<f64> {
        let at = self.window * WINDOW_STRIDE;
        let w = self.trace.flat.get(at..at + WINDOW_STRIDE)?;
        self.window += 1;
        // The exact arithmetic a live lane would apply at this read
        // index, borrowing the fold straight out of flat storage.
        let acc = if self.guest_visible {
            ActivityVector::from_slice(&w[..Feature::COUNT])
        } else {
            ActivityVector::from_slice(&w[Feature::COUNT..])
        };
        let draw = self.draws;
        self.draws += 1;
        Some(read_counter(self.matrix, self.event, self.noise_base, draw, acc) as f64)
    }

    /// Consumes the next `n` windows and returns their median —
    /// the batched counterpart of [`measure_median`].
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` windows remain.
    pub fn median_of(&mut self, n: usize) -> f64 {
        let n = n.max(1);
        // The generation gate runs this for every (event, candidate)
        // pair; a stack buffer keeps the common rep counts allocation-free.
        let mut buf = [0.0f64; 32];
        if n <= buf.len() {
            for slot in &mut buf[..n] {
                *slot = self.next_window().expect("trace window underflow");
            }
            median(&mut buf[..n])
        } else {
            let mut samples: Vec<f64> = (0..n)
                .map(|_| self.next_window().expect("trace window underflow"))
                .collect();
            median(&mut samples)
        }
    }

    /// Consumes the next `n` windows and returns the raw deltas — the
    /// batched counterpart of [`measure_repeated`].
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` windows remain.
    pub fn take_windows(&mut self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| self.next_window().expect("trace window underflow"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegis_isa::Vendor;
    use aegis_microarch::{named, InterferenceConfig, MicroArch};

    fn setup() -> (IsaCatalog, Core) {
        let catalog = IsaCatalog::synthetic(Vendor::Amd, 7);
        let mut core = Core::new(MicroArch::AmdEpyc7252, 7);
        core.set_interference(InterferenceConfig::isolated());
        (catalog, core)
    }

    #[test]
    fn flush_load_gadget_moves_refill_event() {
        let (catalog, mut core) = setup();
        let ev = core
            .catalog()
            .lookup(named::DATA_CACHE_REFILLS_FROM_SYSTEM)
            .unwrap();
        program_event(&mut core, ev);
        let seq = [WellKnown::Clflush.id(), WellKnown::Load64.id()];
        let delta = measure_median(&mut core, &catalog, &seq, 10);
        assert!((0.9..1.5).contains(&delta), "refill delta {delta}");
    }

    #[test]
    fn nop_does_not_move_refill_event() {
        let (catalog, mut core) = setup();
        let ev = core
            .catalog()
            .lookup(named::DATA_CACHE_REFILLS_FROM_SYSTEM)
            .unwrap();
        program_event(&mut core, ev);
        let delta = measure_median(&mut core, &catalog, &[WellKnown::Nop.id()], 10);
        assert!(delta.abs() < 0.5, "nop delta {delta}");
    }

    #[test]
    fn uops_event_counts_everything() {
        let (catalog, mut core) = setup();
        let ev = core.catalog().lookup(named::RETIRED_UOPS).unwrap();
        program_event(&mut core, ev);
        let delta = measure_median(&mut core, &catalog, &[WellKnown::Add64.id()], 10);
        assert!(delta >= 1.0, "uops delta {delta}");
    }

    #[test]
    fn faulting_instructions_are_skipped() {
        let (catalog, mut core) = setup();
        let ev = core.catalog().lookup(named::RETIRED_UOPS).unwrap();
        program_event(&mut core, ev);
        let illegal = catalog.variants().iter().find(|v| !v.legal).unwrap().id;
        let delta = measure_median(&mut core, &catalog, &[illegal], 5);
        assert!(delta.abs() < 1.0, "illegal instr delta {delta}");
    }

    #[test]
    fn repeated_measure_returns_r_samples() {
        let (catalog, mut core) = setup();
        let ev = core.catalog().lookup(named::RETIRED_UOPS).unwrap();
        program_event(&mut core, ev);
        let v = measure_repeated(&mut core, &catalog, &[WellKnown::Add64.id()], 7);
        assert_eq!(v.len(), 7);
    }

    #[test]
    fn trace_eval_bit_matches_scalar_measurement() {
        // The batched path must reproduce the scalar protocol exactly:
        // same-seeded cores, same window sequence → bit-identical deltas
        // for every event, even though the recording core never programs
        // a counter.
        let seqs: [&[aegis_isa::InstrId]; 3] = [
            &[WellKnown::Clflush.id(), WellKnown::Load64.id()],
            &[WellKnown::Add64.id()],
            &[
                WellKnown::Store64.id(),
                WellKnown::Load64.id(),
                WellKnown::Nop.id(),
            ],
        ];
        let reps = 10;

        let (catalog, mut rec_core) = setup();
        let matrix = ResponseMatrix::shared(rec_core.arch());
        let noise_base = rec_core.noise_base(0);
        let mut rec = TraceRecorder::begin(&mut rec_core, &catalog);
        for seq in seqs {
            for _ in 0..reps {
                rec.window(seq);
            }
        }
        let trace = rec.finish();
        assert_eq!(trace.windows(), 3 * reps);
        assert!(trace.steps() > 0);

        let events = [
            named::RETIRED_UOPS,
            named::DATA_CACHE_REFILLS_FROM_SYSTEM,
            named::LS_DISPATCH,
        ];
        for name in events {
            let (catalog2, mut scalar_core) = setup();
            let ev = scalar_core.catalog().lookup(name).unwrap();
            program_event(&mut scalar_core, ev);
            let mut eval = TraceEval::new(&trace, &matrix, noise_base, ev);
            for seq in seqs {
                let scalar: Vec<f64> = (0..reps)
                    .map(|_| measure_once(&mut scalar_core, &catalog2, seq))
                    .collect();
                let batched = eval.take_windows(reps);
                for (s, b) in scalar.iter().zip(&batched) {
                    assert_eq!(s.to_bits(), b.to_bits(), "event {name}: {s} vs {b}");
                }
            }
        }
    }

    #[test]
    fn batch_recorder_bit_matches_scalar_recorder_per_lane() {
        // Lane l of the batched recorder must produce the exact trace a
        // scalar TraceRecorder produces on `baseline.clone()` +
        // `reseed(seeds[l])` driven through the same window schedule —
        // sums, step counts, and support masks all bit-identical.
        let (catalog, baseline) = setup();
        let seeds = [11u64, 0x5eed_cafe, 42, 7];
        let lane_seqs: [&[InstrId]; 4] = [
            &[WellKnown::Clflush.id(), WellKnown::Load64.id()],
            &[WellKnown::Add64.id()],
            &[WellKnown::Store64.id(), WellKnown::Load64.id()],
            &[WellKnown::BranchBiased.id(), WellKnown::Nop.id()],
        ];
        let reps = 6;

        let mut batch = CoreBatch::from_core_state(&baseline, seeds.len());
        for (lane, &seed) in seeds.iter().enumerate() {
            batch.reseed(lane, seed);
        }
        let mut rec = BatchTraceRecorder::begin(&mut batch, &catalog);
        for _ in 0..reps {
            rec.window(&lane_seqs);
        }
        let batched = rec.finish();
        assert_eq!(batched.len(), seeds.len());

        for (lane, &seed) in seeds.iter().enumerate() {
            let mut session = baseline.clone();
            session.reseed(seed);
            let mut rec = TraceRecorder::begin(&mut session, &catalog);
            for _ in 0..reps {
                rec.window(lane_seqs[lane]);
            }
            let scalar = rec.finish();
            assert_eq!(scalar, batched[lane], "lane {lane} diverged");
            assert_eq!(scalar.steps(), batched[lane].steps());
            assert_eq!(scalar.support(), batched[lane].support());
        }
    }

    #[test]
    fn trace_eval_median_matches_measure_median() {
        let (catalog, mut scalar_core) = setup();
        let ev = scalar_core.catalog().lookup(named::RETIRED_UOPS).unwrap();
        program_event(&mut scalar_core, ev);
        let seq = [WellKnown::Clflush.id(), WellKnown::Load64.id()];
        let scalar = measure_median(&mut scalar_core, &catalog, &seq, 10);

        let (_, mut rec_core) = setup();
        let matrix = ResponseMatrix::shared(rec_core.arch());
        let noise_base = rec_core.noise_base(0);
        let mut rec = TraceRecorder::begin(&mut rec_core, &catalog);
        for _ in 0..10 {
            rec.window(&seq);
        }
        let trace = rec.finish();
        let mut eval = TraceEval::new(&trace, &matrix, noise_base, ev);
        assert_eq!(scalar.to_bits(), eval.median_of(10).to_bits());
    }

    #[test]
    fn disjoint_support_reads_exactly_zero() {
        // The fuzzer skips (event, candidate) pairs whose feature support
        // is disjoint from the trace's. That is only sound if disjoint
        // support really implies a bit-exact zero read on every window —
        // pin the algebraic identity here.
        let (catalog, mut core) = setup();
        let matrix = ResponseMatrix::shared(core.arch());
        let noise_base = core.noise_base(0);
        let mut rec = TraceRecorder::begin(&mut core, &catalog);
        for _ in 0..6 {
            rec.window(&[WellKnown::Nop.id()]);
        }
        let trace = rec.finish();
        let mut disjoint = 0;
        for e in 0..matrix.n_events() as u32 {
            let ev = EventId(e);
            if matrix.support(ev) & trace.support() != 0 {
                continue;
            }
            disjoint += 1;
            let mut eval = TraceEval::new(&trace, &matrix, noise_base, ev);
            while let Some(v) = eval.next_window() {
                assert_eq!(v.to_bits(), 0.0f64.to_bits(), "event {ev} read {v}");
            }
        }
        assert!(disjoint > 0, "nop trace should leave some events disjoint");
    }

    #[test]
    fn trace_log_columnar_roundtrip_is_bit_exact() {
        use aegis_par::Columnar;
        let (catalog, mut core) = setup();
        let mut traces = Vec::new();
        for n in 1..4usize {
            let mut rec = TraceRecorder::begin(&mut core, &catalog);
            for _ in 0..n {
                rec.window(&[WellKnown::Add64.id()]);
            }
            traces.push(rec.finish());
        }
        let log = TraceLog(traces);
        let back = TraceLog::from_frame(log.to_frame()).unwrap();
        assert_eq!(back.0.len(), log.0.len());
        for (b, t) in back.0.iter().zip(&log.0) {
            assert_eq!(b.steps, t.steps);
            assert_eq!(b.support, t.support);
            assert_eq!(
                b.flat.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                t.flat.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
        assert_eq!(
            TraceLog::from_frame(TraceLog::default().to_frame()).unwrap(),
            TraceLog::default()
        );
        // A meta column that disagrees with the page must not decode.
        let mut frame = aegis_par::ColumnFrame::new();
        frame.push_u64(vec![1, WINDOW_STRIDE as u64, 3, 0]);
        frame.push_f64(vec![0.0; WINDOW_STRIDE - 1]);
        assert!(TraceLog::from_frame(frame).is_err());
    }

    #[test]
    fn lazy_eval_stops_early_without_panicking() {
        let (catalog, mut core) = setup();
        let ev = core.catalog().lookup(named::RETIRED_UOPS).unwrap();
        let matrix = ResponseMatrix::shared(core.arch());
        let noise_base = core.noise_base(0);
        let mut rec = TraceRecorder::begin(&mut core, &catalog);
        for _ in 0..5 {
            rec.window(&[WellKnown::Add64.id()]);
        }
        let trace = rec.finish();
        {
            // Abandoning an evaluation mid-trace is free.
            let mut eval = TraceEval::new(&trace, &matrix, noise_base, ev);
            assert!(eval.next_window().is_some());
        }
        let mut eval2 = TraceEval::new(&trace, &matrix, noise_base, ev);
        assert_eq!(eval2.take_windows(5).len(), 5);
        assert!(eval2.next_window().is_none());
    }
}
