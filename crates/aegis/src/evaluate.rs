//! End-to-end attack/defense evaluation: the machinery behind the
//! paper's case studies (Section III) and defense evaluation (Section
//! VIII). Used by the examples and the experiment harness.

use crate::error::AegisError;
use crate::pipeline::{AegisConfig, DefenseDeployment};
use aegis_attack::{
    ctc_collapse, layer_match_accuracy, trace_features_into, Dataset, EpochStats, GaussianNb,
    Standardizer, TrainConfig, TrainingCurve,
};
use aegis_microarch::{EventId, OriginFilter};
use aegis_obs as obs;
use aegis_par::{
    derive_seed, fingerprint, ArtifactCache, ArtifactKey, ColumnFrame, ColumnSchema, Columnar,
    Executor, FrameError, FrameReader,
};
use aegis_sev::{ActivitySource, Host, HostError, LaneGuest, PlanSource, VmId};
use aegis_workloads::{DnnZoo, LayerKind, SecretApp, Segment, WorkloadPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Stream tags separating the independent RNG consumers of one
/// collection seed (see [`derive_seed`]).
const STREAM_PLAN: u64 = 0x01;
const STREAM_NOISE: u64 = 0x02;
const STREAM_MEA_PLAN: u64 = 0x03;
const STREAM_MEA_NOISE: u64 = 0x04;

/// Tag mixed into a classifier's training seed to draw its 70/30 split.
const CLASSIFIER_SPLIT: u64 = 0xa77a_c4e0;

/// Trace-collection settings for attack datasets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CollectConfig {
    /// Monitored traces per secret.
    pub traces_per_secret: usize,
    /// Monitoring window (≤ the app's window).
    pub window_ns: u64,
    /// Sampling interval (the paper's attacker uses 1 ms).
    pub interval_ns: u64,
    /// Average-pooling factor applied to each event row before learning.
    pub pool: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// When true, the injected noise stream is seeded by the *secret*
    /// only, so every execution of the same secret carries the identical
    /// noise — the paper's Section IX-B countermeasure against attackers
    /// who average multiple traces.
    pub per_secret_noise: bool,
}

impl Default for CollectConfig {
    fn default() -> Self {
        CollectConfig {
            traces_per_secret: 12,
            window_ns: 500_000_000,
            interval_ns: 1_000_000,
            pool: 10,
            seed: 7,
            per_secret_noise: false,
        }
    }
}

/// The trace-collection handle: one place that owns the collection and
/// MEA settings and measures apps, datasets, and extraction runs against
/// a host. Build one from the same [`AegisConfig`] that drives the
/// pipeline — collection settings live alongside the mechanism and
/// profiling settings instead of being threaded as loose arguments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Collector {
    collect: CollectConfig,
    mea: MeaConfig,
}

impl Collector {
    /// Builds a collector from the pipeline configuration.
    pub fn new(cfg: &AegisConfig) -> Collector {
        Collector {
            collect: cfg.collect,
            mea: cfg.mea,
        }
    }

    /// Builds a collector from explicit settings (for callers that never
    /// construct an [`AegisConfig`]).
    pub fn from_parts(collect: CollectConfig, mea: MeaConfig) -> Collector {
        Collector { collect, mea }
    }

    /// A collector with the given trace settings and default MEA
    /// settings.
    pub fn for_traces(collect: CollectConfig) -> Collector {
        Collector {
            collect,
            mea: MeaConfig::default(),
        }
    }

    /// A collector with the given MEA settings and default trace
    /// settings.
    pub fn for_mea(mea: MeaConfig) -> Collector {
        Collector {
            collect: CollectConfig::default(),
            mea,
        }
    }

    /// Collects a labeled HPC-trace dataset of `app` running in `vm`, as
    /// observed by the *host* (the attacker's view: every counter on the
    /// guest's core, app and injected noise indistinguishable).
    ///
    /// With `defense` set, a fresh obfuscator is deployed per trace.
    ///
    /// The (secret, rep) units are independent measurements: each unit
    /// is one lane recorded from a snapshot of the vCPU's core in `host`
    /// ([`Host::record_trace_multi_batch`]), with plan and noise RNGs
    /// derived from `(seed, unit index)`, and lanes shard across the
    /// configured worker pool. `host` itself is neither advanced nor
    /// changed, an injector attached to the vCPU plays no part, and the
    /// dataset is bit-identical for any worker count, including 1.
    ///
    /// # Errors
    ///
    /// Returns [`AegisError::Host`] for invalid ids, or
    /// [`AegisError::Fault`] when an injected programming fault outlasts
    /// its retries.
    pub fn dataset(
        &self,
        host: &Host,
        vm: VmId,
        vcpu: usize,
        app: &dyn SecretApp,
        events: &[EventId],
        defense: Option<&DefenseDeployment>,
    ) -> Result<Dataset, AegisError> {
        dataset_impl(host, vm, vcpu, app, events, &self.collect, defense)
    }

    /// Collects model-extraction runs: each run is one padded inference
    /// pass of one zoo model with per-slice layer labels, recorded as a
    /// one-lane tile whose window is that run's length. Reads `host`
    /// exactly like [`Collector::dataset`].
    ///
    /// # Errors
    ///
    /// As [`Collector::dataset`].
    pub fn mea_runs(
        &self,
        host: &Host,
        vm: VmId,
        vcpu: usize,
        zoo: &DnnZoo,
        events: &[EventId],
        defense: Option<&DefenseDeployment>,
    ) -> Result<Vec<(usize, MeaRun)>, AegisError> {
        mea_runs_impl(host, vm, vcpu, zoo, events, &self.mea, defense)
    }

    /// Runs one app plan to completion and measures latency and CPU
    /// usage (see [`measure_app_run`]).
    ///
    /// # Errors
    ///
    /// Returns [`AegisError::Host`] for invalid ids, or if the app fails
    /// to finish within 10× its nominal duration.
    pub fn measure(
        &self,
        host: &mut Host,
        vm: VmId,
        vcpu: usize,
        plan: WorkloadPlan,
        defense: Option<&DefenseDeployment>,
        seed: u64,
    ) -> Result<RunMeasurement, AegisError> {
        measure_app_run(host, vm, vcpu, plan, defense, seed)
    }
}

/// Units per parallel work item on the batched collection path: one
/// cache-sized [`CoreBatch`](aegis_microarch::CoreBatch) tile of the
/// single-core lane group.
const COLLECT_TILE_UNITS: usize = aegis_microarch::CoreBatch::TILE_LANES;

/// The per-lane deltas of one `(secret, rep)` unit: the sampled app
/// plan and (with a defense) a fresh obfuscator, exactly what the
/// scalar path would attach to its fork of the host. All seeds derive
/// from the unit index alone, so lanes are order-independent.
fn collect_lane(
    unit: usize,
    secret: usize,
    app: &dyn SecretApp,
    defense: Option<&DefenseDeployment>,
    cfg: &CollectConfig,
) -> LaneGuest {
    let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, STREAM_PLAN, unit as u64));
    let plan = app.sample_plan(secret, &mut rng);
    let noise_unit = if cfg.per_secret_noise {
        secret as u64
    } else {
        unit as u64
    };
    LaneGuest {
        app: Some(Box::new(PlanSource::new(plan))),
        injector: defense.map(|d| {
            Box::new(d.make_obfuscator(derive_seed(cfg.seed, STREAM_NOISE, noise_unit)))
                as Box<dyn ActivitySource>
        }),
    }
}

fn dataset_impl(
    host: &Host,
    vm: VmId,
    vcpu: usize,
    app: &dyn SecretApp,
    events: &[EventId],
    cfg: &CollectConfig,
    defense: Option<&DefenseDeployment>,
) -> Result<Dataset, AegisError> {
    let mut span = obs::span("collect.dataset");
    // Id errors surface before workers spawn.
    let core_idx = host.core_of(vm, vcpu)?;
    let units: Vec<(usize, usize)> = (0..app.n_secrets())
        .flat_map(|s| (0..cfg.traces_per_secret).map(move |r| (s, r)))
        .collect();
    // Attribute the simulated time this call replays alongside its wall
    // time (each unit replays one monitoring window).
    let window = cfg.window_ns.min(app.window_ns());
    span.set_sim_ns(window * units.len() as u64);
    // The lane-batched acquisition path: each unit is one lane of a
    // single-core lane group snapshotted from `host`, bit-identical to
    // recording the unit on its own detached fork (the scalar reference
    // in the tests, pinned by a parity test). Tiles shard over the worker
    // pool with per-worker feature scratch — no per-unit fork or trace
    // allocation.
    let tiles: Vec<&[(usize, usize)]> = units.chunks(COLLECT_TILE_UNITS).collect();
    let rows: Vec<Result<(Vec<f64>, usize), aegis_perf::PerfError>> = Executor::from_config()
        .map_with(
            tiles,
            |_worker| Vec::new(),
            |feats, tile_ix, tile| {
                let base = tile_ix * COLLECT_TILE_UNITS;
                let lanes: Vec<Vec<LaneGuest>> = tile
                    .iter()
                    .enumerate()
                    .map(|(i, &(secret, _rep))| {
                        vec![collect_lane(base + i, secret, app, defense, cfg)]
                    })
                    .collect();
                // Events were validated on the original host; recording
                // only fails when an injected programming fault exhausts
                // its retry budget, surfaced as `AegisError::Fault` below.
                let traces = host.record_trace_multi_batch(
                    &[core_idx],
                    lanes,
                    events,
                    OriginFilter::Any,
                    cfg.interval_ns,
                    window,
                )?;
                let mut flat = Vec::new();
                for lane in &traces {
                    trace_features_into(&lane[0], cfg.pool, feats);
                    flat.extend_from_slice(feats);
                }
                Ok((flat, traces.len()))
            },
        );
    let mut ds = Dataset::new(Vec::new(), Vec::new(), app.n_secrets());
    for (tile_ix, row) in rows.into_iter().enumerate() {
        let (flat, n_lanes) = row.map_err(AegisError::from)?;
        let stride = flat.len().checked_div(n_lanes).unwrap_or(0);
        let tile_units = &units[tile_ix * COLLECT_TILE_UNITS..];
        for (i, &(secret, _rep)) in tile_units.iter().take(n_lanes).enumerate() {
            ds.push_slice(&flat[i * stride..(i + 1) * stride], secret);
        }
    }
    Ok(ds)
}

/// A trained classification attacker (WFA/KSA): a Gaussian
/// class-conditional model (the generative counterpart of the paper's
/// CNN; see `aegis_attack::GaussianNb` for why) plus the feature
/// standardizer fitted on its training data.
///
/// Memoized through [`ArtifactCache`] by [`Attacker::train_cached`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassifierAttack {
    model: GaussianNb,
    standardizer: Standardizer,
    /// The fit's one point: train loss and train accuracy on the 70%
    /// split, validation accuracy on the 30%. Fig. 1's curve comes from
    /// [`Attacker::learning_curve`].
    pub curve: TrainingCurve,
}

impl ClassifierAttack {
    /// Trains on a clean (or noisy, for the robust attacker of Fig. 9b)
    /// dataset with the paper's 70/30 train/validation split: the same
    /// fit as [`Attacker::fit`]. `_train_cfg` is unread — the Gaussian
    /// model has no optimizer settings — and stays only for callers of
    /// this signature.
    ///
    /// # Panics
    ///
    /// Panics if `dataset` is empty.
    pub fn train(dataset: &Dataset, _train_cfg: TrainConfig, seed: u64) -> Self {
        Self::fit(dataset, seed)
    }

    /// The 70/30 split drawn from `split_seed`, a standardizer fitted on
    /// the training part, and the model fit on `increments` growing
    /// prefixes of that part, one curve point each — the reproduction's
    /// analogue of the paper's per-epoch training curves. The last prefix
    /// is the whole part and keeps its model, so one increment is one
    /// fit with one point.
    fn fit_split(dataset: &Dataset, increments: usize, split_seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(split_seed);
        let (mut train, mut val) = dataset.split(0.7, &mut rng);
        let standardizer = Standardizer::fit(&train.samples);
        standardizer.apply_dataset(&mut train);
        standardizer.apply_dataset(&mut val);
        let increments = increments.max(1);
        let mut curve = TrainingCurve::new();
        let mut model = None;
        for e in 0..increments {
            let sub = train.head(((train.len() * (e + 1)) / increments).max(1));
            let m = GaussianNb::fit(&sub);
            curve.push(EpochStats {
                epoch: e,
                train_loss: m.mean_nll(&sub),
                train_acc: m.accuracy(&sub),
                val_acc: m.accuracy(&val),
            });
            model = Some(m);
        }
        ClassifierAttack {
            model: model.expect("at least one increment"),
            standardizer,
            curve,
        }
    }

    /// Accuracy on new traces (the online exploitation phase).
    pub fn accuracy(&self, dataset: &Dataset) -> f64 {
        let mut ds = dataset.clone();
        self.standardizer.apply_dataset(&mut ds);
        self.model.accuracy(&ds)
    }
}

/// Columnar layout: the member frames in field order — model,
/// standardizer, curve — so a trained attacker loads as a handful of
/// bulk page reads.
impl Columnar for ClassifierAttack {
    fn schema() -> ColumnSchema {
        ColumnSchema::new("aegis/classifier-attack", 2)
    }

    fn encode_columns(&self, frame: &mut ColumnFrame) {
        self.model.encode_columns(frame);
        self.standardizer.encode_columns(frame);
        self.curve.encode_columns(frame);
    }

    fn decode_columns(reader: &mut FrameReader) -> Result<Self, FrameError> {
        Ok(ClassifierAttack {
            model: GaussianNb::decode_columns(reader)?,
            standardizer: Standardizer::decode_columns(reader)?,
            curve: TrainingCurve::decode_columns(reader)?,
        })
    }
}

/// One monitored inference run for the model extraction attack: per-slice
/// features and the ground-truth layer sequence.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MeaRun {
    /// Per-slice feature vectors.
    pub slices: Vec<Vec<f64>>,
    /// Ground-truth (uncollapsed) layer index per slice; `BLANK` = idle.
    pub slice_labels: Vec<usize>,
    /// Ground-truth layer sequence of the model.
    pub truth: Vec<usize>,
}

/// A collected set of `(model index, run)` extraction runs with a
/// columnar on-disk encoding. A newtype rather than an impl on the bare
/// `Vec` — `Columnar` is a foreign trait, so the orphan rule requires a
/// local carrier — that also gives the artifact a stable schema name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MeaRunLog(pub Vec<(usize, MeaRun)>);

/// Columnar layout: one `u64` meta column (`[n_runs]`, then per run
/// `[model, n_slices, n_labels, truth_len]`), a `u64` column of
/// per-slice feature lengths, the concatenated slice features as one
/// `f64` page, and the concatenated slice labels / truth sequences as
/// `u64` pages. Loading is a handful of bulk page reads with no
/// per-element parsing.
impl Columnar for MeaRunLog {
    fn schema() -> ColumnSchema {
        ColumnSchema::new("aegis/mea-runs", 1)
    }

    fn encode_columns(&self, frame: &mut ColumnFrame) {
        let mut meta = Vec::with_capacity(1 + self.0.len() * 4);
        meta.push(self.0.len() as u64);
        let mut slice_lens = Vec::new();
        let mut flat = Vec::new();
        let mut labels = Vec::new();
        let mut truths = Vec::new();
        for (model, run) in &self.0 {
            meta.push(*model as u64);
            meta.push(run.slices.len() as u64);
            meta.push(run.slice_labels.len() as u64);
            meta.push(run.truth.len() as u64);
            for s in &run.slices {
                slice_lens.push(s.len() as u64);
                flat.extend_from_slice(s);
            }
            labels.extend(run.slice_labels.iter().map(|&l| l as u64));
            truths.extend(run.truth.iter().map(|&t| t as u64));
        }
        frame.push_u64(meta);
        frame.push_u64(slice_lens);
        frame.push_f64(flat);
        frame.push_u64(labels);
        frame.push_u64(truths);
    }

    fn decode_columns(reader: &mut FrameReader) -> Result<Self, FrameError> {
        fn idx(v: u64, what: &str) -> Result<usize, FrameError> {
            usize::try_from(v).map_err(|_| FrameError::new(format!("mea-runs: {what} overflow")))
        }
        let meta = reader.u64s()?;
        let slice_lens = reader.u64s()?;
        let flat = reader.f64s()?;
        let labels = reader.u64s()?;
        let truths = reader.u64s()?;
        let Some((&n, per_run)) = meta.split_first() else {
            return Err(FrameError::new("mea-runs: empty meta column"));
        };
        let n = idx(n, "run count")?;
        if per_run.len() != n * 4 {
            return Err(FrameError::new(format!(
                "mea-runs: meta column holds {} entries for {n} runs",
                per_run.len()
            )));
        }
        let mut runs = Vec::with_capacity(n);
        let (mut s_at, mut f_at, mut l_at, mut t_at) = (0usize, 0usize, 0usize, 0usize);
        for chunk in per_run.chunks_exact(4) {
            let model = idx(chunk[0], "model index")?;
            let n_slices = idx(chunk[1], "slice count")?;
            let n_labels = idx(chunk[2], "label count")?;
            let truth_len = idx(chunk[3], "truth length")?;
            let mut slices = Vec::with_capacity(n_slices);
            for _ in 0..n_slices {
                let len = idx(
                    *slice_lens
                        .get(s_at)
                        .ok_or_else(|| FrameError::new("mea-runs: slice-length column short"))?,
                    "slice length",
                )?;
                s_at += 1;
                let end = f_at
                    .checked_add(len)
                    .filter(|&e| e <= flat.len())
                    .ok_or_else(|| FrameError::new("mea-runs: feature page short"))?;
                slices.push(flat[f_at..end].to_vec());
                f_at = end;
            }
            let l_end = l_at
                .checked_add(n_labels)
                .filter(|&e| e <= labels.len())
                .ok_or_else(|| FrameError::new("mea-runs: label column short"))?;
            let slice_labels = labels[l_at..l_end]
                .iter()
                .map(|&l| idx(l, "slice label"))
                .collect::<Result<Vec<_>, _>>()?;
            l_at = l_end;
            let t_end = t_at
                .checked_add(truth_len)
                .filter(|&e| e <= truths.len())
                .ok_or_else(|| FrameError::new("mea-runs: truth column short"))?;
            let truth = truths[t_at..t_end]
                .iter()
                .map(|&t| idx(t, "truth label"))
                .collect::<Result<Vec<_>, _>>()?;
            t_at = t_end;
            runs.push((
                model,
                MeaRun {
                    slices,
                    slice_labels,
                    truth,
                },
            ));
        }
        if s_at != slice_lens.len()
            || f_at != flat.len()
            || l_at != labels.len()
            || t_at != truths.len()
        {
            return Err(FrameError::new("mea-runs: trailing data beyond meta"));
        }
        Ok(MeaRunLog(runs))
    }
}

/// The model-key fingerprint of a run log is that of its runs.
impl Serialize for MeaRunLog {
    fn to_value(&self) -> serde::Value {
        self.0.to_value()
    }
}

/// The CTC blank symbol (idle / between inferences).
pub const BLANK: usize = LayerKind::ALL.len();

/// MEA collection settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeaConfig {
    /// Monitored inference runs per model.
    pub runs_per_model: usize,
    /// Sampling interval.
    pub interval_ns: u64,
    /// Idle padding before/after the inference inside the window.
    pub pad_ns: u64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for MeaConfig {
    fn default() -> Self {
        MeaConfig {
            runs_per_model: 6,
            interval_ns: 1_000_000,
            pad_ns: 20_000_000,
            seed: 7,
        }
    }
}

/// Collects model-extraction runs: each run is one padded inference pass
/// of one zoo model with per-slice layer labels.
///
/// Each (model, rep) unit is one lane recorded from a snapshot of the
/// vCPU's core, its window the length of its padded inference, with
/// per-unit derived seeds; units shard across the configured worker pool
/// and the output is independent of the worker count.
fn mea_runs_impl(
    host: &Host,
    vm: VmId,
    vcpu: usize,
    zoo: &DnnZoo,
    events: &[EventId],
    cfg: &MeaConfig,
    defense: Option<&DefenseDeployment>,
) -> Result<Vec<(usize, MeaRun)>, AegisError> {
    let _span = obs::span("collect.mea");
    let core_idx = host.core_of(vm, vcpu)?;
    let units: Vec<(usize, usize)> = (0..zoo.n_secrets())
        .flat_map(|m| (0..cfg.runs_per_model).map(move |r| (m, r)))
        .collect();
    let runs: Vec<Result<(usize, MeaRun), aegis_perf::PerfError>> =
        Executor::from_config().map(units, |unit, (model, _rep)| {
            let mut rng =
                StdRng::seed_from_u64(derive_seed(cfg.seed, STREAM_MEA_PLAN, unit as u64));
            let (pass, spans) = zoo.sample_inference(model, &mut rng);
            // Pad the inference with idle so the attacker must segment it.
            let mut plan = WorkloadPlan::new();
            plan.push(Segment::new(cfg.pad_ns, aegis_workloads::idle_rate()));
            let offset = cfg.pad_ns;
            let inference_ns = pass.duration_ns();
            plan.segments.extend(pass.segments);
            plan.push(Segment::new(cfg.pad_ns, aegis_workloads::idle_rate()));
            let total_ns = plan.duration_ns();

            let lane = LaneGuest {
                app: Some(Box::new(PlanSource::new(plan))),
                injector: defense.map(|d| {
                    Box::new(d.make_obfuscator(derive_seed(
                        cfg.seed,
                        STREAM_MEA_NOISE,
                        unit as u64,
                    ))) as Box<dyn ActivitySource>
                }),
            };
            // Events were validated on the original host; recording only
            // fails when an injected programming fault exhausts its
            // retry budget, surfaced as `AegisError::Fault` below.
            let trace = host
                .record_trace_multi_batch(
                    &[core_idx],
                    vec![vec![lane]],
                    events,
                    OriginFilter::Any,
                    cfg.interval_ns,
                    total_ns,
                )?
                .pop()
                .and_then(|mut lane| lane.pop())
                .expect("one lane on one core");

            // Per-slice features: the event values of the slice plus the
            // delta to the previous slice (temporal context).
            let t_len = trace.len();
            let mut slices = Vec::with_capacity(t_len);
            for t in 0..t_len {
                let mut f = Vec::with_capacity(events.len() * 2);
                for row in &trace.data {
                    f.push(row[t]);
                }
                for row in &trace.data {
                    f.push(if t == 0 { 0.0 } else { row[t] - row[t - 1] });
                }
                slices.push(f);
            }
            // Ground-truth labels per slice midpoint.
            let slice_labels: Vec<usize> = (0..t_len)
                .map(|t| {
                    let mid = t as u64 * cfg.interval_ns + cfg.interval_ns / 2;
                    if mid < offset || mid >= offset + inference_ns {
                        return BLANK;
                    }
                    let rel = mid - offset;
                    spans
                        .iter()
                        .find(|s| rel >= s.start_ns && rel < s.end_ns)
                        .map_or(BLANK, |s| s.kind.index())
                })
                .collect();
            let truth: Vec<usize> = zoo
                .model(model)
                .label_sequence()
                .iter()
                .map(|k| k.index())
                .collect();
            Ok((
                model,
                MeaRun {
                    slices,
                    slice_labels,
                    truth,
                },
            ))
        });
    runs.into_iter()
        .map(|r| r.map_err(AegisError::from))
        .collect()
}

/// The sequence-extraction attacker: a per-slice layer classifier with
/// CTC-style greedy decoding (the reproduction's stand-in for the paper's
/// GRU + CTC model).
#[derive(Debug, Clone, PartialEq)]
pub struct MeaAttack {
    /// The slice classifier: [`BLANK`]` + 1` classes over per-slice
    /// features.
    pub slices: ClassifierAttack,
}

impl MeaAttack {
    /// Trains the slice classifier on labeled runs (70/30 split at the
    /// slice level).
    ///
    /// # Panics
    ///
    /// Panics if `runs` contains no slices.
    pub fn train(runs: &[(usize, MeaRun)], seed: u64) -> Self {
        let _span = obs::span("attack.train");
        MeaAttack {
            slices: Self::fit_slices(runs, 1, seed),
        }
    }

    /// [`ClassifierAttack::fit_split`] over every labeled slice of `runs`.
    fn fit_slices(runs: &[(usize, MeaRun)], increments: usize, seed: u64) -> ClassifierAttack {
        let mut ds = Dataset::new(Vec::new(), Vec::new(), BLANK + 1);
        for (_, run) in runs {
            for (f, &l) in run.slices.iter().zip(&run.slice_labels) {
                ds.push(f.clone(), l);
            }
        }
        assert!(!ds.is_empty(), "no slices to train on");
        ClassifierAttack::fit_split(&ds, increments, seed ^ 0x5e0a_11ce)
    }

    /// Extracts the layer sequence of one run: per-slice prediction, a
    /// width-3 majority smoothing pass, suppression of single-slice
    /// blips (every real layer spans at least two sampling slices), then
    /// CTC greedy collapse. Smoothing plays the role the paper's
    /// recurrent model plays through its temporal context.
    pub fn extract(&self, run: &MeaRun) -> Vec<usize> {
        let raw: Vec<usize> = run
            .slices
            .iter()
            .map(|f| {
                let mut x = f.clone();
                self.slices.standardizer.apply(&mut x);
                self.slices.model.predict(&x)
            })
            .collect();
        let n = raw.len();
        let smoothed: Vec<usize> = (0..n)
            .map(|t| {
                if t == 0 || t + 1 == n {
                    return raw[t];
                }
                // Majority of the 3-window; ties keep the center.
                if raw[t - 1] == raw[t + 1] && raw[t - 1] != raw[t] {
                    raw[t - 1]
                } else {
                    raw[t]
                }
            })
            .collect();
        // Drop runs of length 1: sampling at 1 ms cannot legitimately see
        // a layer for a single slice given the layer-duration floor.
        let mut filtered = Vec::with_capacity(n);
        let mut i = 0;
        while i < n {
            let mut j = i;
            while j < n && smoothed[j] == smoothed[i] {
                j += 1;
            }
            if j - i >= 2 {
                filtered.extend_from_slice(&smoothed[i..j]);
            }
            i = j;
        }
        ctc_collapse(&filtered, BLANK)
    }

    /// Mean layer-match accuracy over runs — the paper's MEA metric.
    pub fn sequence_accuracy(&self, runs: &[(usize, MeaRun)]) -> f64 {
        if runs.is_empty() {
            return 0.0;
        }
        runs.iter()
            .map(|(_, run)| layer_match_accuracy(&self.extract(run), &run.truth))
            .sum::<f64>()
            / runs.len() as f64
    }
}

/// Columnar layout: the slice classifier's frames under the MEA schema.
impl Columnar for MeaAttack {
    fn schema() -> ColumnSchema {
        ColumnSchema::new("aegis/mea-attack", 2)
    }

    fn encode_columns(&self, frame: &mut ColumnFrame) {
        self.slices.encode_columns(frame);
    }

    fn decode_columns(reader: &mut FrameReader) -> Result<Self, FrameError> {
        Ok(MeaAttack {
            slices: ClassifierAttack::decode_columns(reader)?,
        })
    }
}

/// An attacker as the ε-sweep, the figure drivers and the artifact
/// cache see it: what it collects, from what target, how it trains and
/// how it scores. [`ClassifierAttack`] (WFA/KSA) collects a [`Dataset`]
/// of traces from any [`SecretApp`]; [`MeaAttack`] collects a
/// [`MeaRunLog`] of inference runs from a [`DnnZoo`]. Every memoized
/// artifact of an attacker is keyed by [`Attacker::data_key`] or
/// [`Attacker::model_key`].
pub trait Attacker: Columnar + Sync + Sized {
    /// The workload under attack.
    type Target: ?Sized + Sync;
    /// Collection settings.
    type Collect: Copy + Serialize + Sync;
    /// One collection, as cached, trained on and scored.
    type Data: Columnar + Serialize;

    /// Cache kind of a clean collection.
    const CLEAN_KIND: &'static str;
    /// Cache kind of a defended collection.
    const NOISY_KIND: &'static str;
    /// Cache kind of a trained model.
    const MODEL_KIND: &'static str;

    /// The target as an app: its name and secret count key the cache.
    fn app(target: &Self::Target) -> &dyn SecretApp;

    /// `collect` with `per_secret` traces (MEA: runs) per secret and
    /// base seed `seed`.
    fn configure(collect: &Self::Collect, per_secret: usize, seed: u64) -> Self::Collect;

    /// Collects from `host` as it stands (see [`Collector`]).
    ///
    /// # Errors
    ///
    /// As [`Collector::dataset`].
    fn collect(
        host: &Host,
        vm: VmId,
        vcpu: usize,
        target: &Self::Target,
        events: &[EventId],
        collect: &Self::Collect,
        defense: Option<&DefenseDeployment>,
    ) -> Result<Self::Data, AegisError>;

    /// Trains on `data`: one fit on the paper's 70/30 split drawn from
    /// `seed`.
    fn fit(data: &Self::Data, seed: u64) -> Self;

    /// Fig. 1's learning curve: the model [`Attacker::fit`] trains,
    /// refit on `increments` growing prefixes of the same training
    /// split. The last point equals the fitted attacker's.
    fn learning_curve(data: &Self::Data, increments: usize, seed: u64) -> TrainingCurve;

    /// Attack accuracy on victim data.
    fn score(&self, data: &Self::Data) -> f64;

    /// Cache key of one collection: the complete set of inputs it is a
    /// pure function of — substrate (host seed), target, event list,
    /// collection settings (seed included) and, for a defended one, the
    /// full deployment.
    fn data_key(
        host_seed: u64,
        target: &Self::Target,
        events: &[EventId],
        collect: &Self::Collect,
        defense: Option<&DefenseDeployment>,
    ) -> ArtifactKey {
        let app = Self::app(target);
        let (name, n) = (app.name().to_string(), app.n_secrets() as u64);
        match defense {
            None => ArtifactKey::raw(
                Self::CLEAN_KIND,
                fingerprint(&(host_seed, name, n, events.to_vec(), *collect)),
            ),
            Some(d) => ArtifactKey::raw(
                Self::NOISY_KIND,
                fingerprint(&(
                    host_seed,
                    name,
                    n,
                    events.to_vec(),
                    *collect,
                    &d.stack,
                    &d.mechanism,
                    &d.obfuscator,
                )),
            ),
        }
    }

    /// Cache key of a trained model: training is a pure function of
    /// `(data, seed)`.
    fn model_key(data: &Self::Data, seed: u64) -> ArtifactKey {
        ArtifactKey::raw(Self::MODEL_KIND, fingerprint(&(data, seed)))
    }

    /// [`Attacker::fit`] memoized through `cache` under
    /// [`Attacker::model_key`], in the columnar `.acs` format: a warm hit
    /// is one bulk read, bit-identical to retraining.
    fn train_cached(data: &Self::Data, seed: u64, cache: &ArtifactCache) -> Self {
        let key = Self::model_key(data, seed);
        cache.get_col(&key).unwrap_or_else(|| {
            let model = Self::fit(data, seed);
            let _ = cache.put_col(&key, &model);
            model
        })
    }
}

impl Attacker for ClassifierAttack {
    type Target = dyn SecretApp;
    type Collect = CollectConfig;
    type Data = Dataset;
    const CLEAN_KIND: &'static str = "clean-dataset";
    const NOISY_KIND: &'static str = "noisy-dataset";
    const MODEL_KIND: &'static str = "attack-model";

    fn app(target: &dyn SecretApp) -> &dyn SecretApp {
        target
    }

    fn configure(collect: &CollectConfig, per_secret: usize, seed: u64) -> CollectConfig {
        CollectConfig {
            traces_per_secret: per_secret,
            seed,
            ..*collect
        }
    }

    fn collect(
        host: &Host,
        vm: VmId,
        vcpu: usize,
        target: &dyn SecretApp,
        events: &[EventId],
        collect: &CollectConfig,
        defense: Option<&DefenseDeployment>,
    ) -> Result<Dataset, AegisError> {
        dataset_impl(host, vm, vcpu, target, events, collect, defense)
    }

    fn fit(data: &Dataset, seed: u64) -> Self {
        let _span = obs::span("attack.train");
        Self::fit_split(data, 1, seed ^ CLASSIFIER_SPLIT)
    }

    fn learning_curve(data: &Dataset, increments: usize, seed: u64) -> TrainingCurve {
        Self::fit_split(data, increments, seed ^ CLASSIFIER_SPLIT).curve
    }

    fn score(&self, data: &Dataset) -> f64 {
        self.accuracy(data)
    }
}

impl Attacker for MeaAttack {
    type Target = DnnZoo;
    type Collect = MeaConfig;
    type Data = MeaRunLog;
    const CLEAN_KIND: &'static str = "clean-mea-runs";
    const NOISY_KIND: &'static str = "noisy-mea-runs";
    const MODEL_KIND: &'static str = "mea-model";

    fn app(target: &DnnZoo) -> &dyn SecretApp {
        target
    }

    fn configure(collect: &MeaConfig, per_secret: usize, seed: u64) -> MeaConfig {
        MeaConfig {
            runs_per_model: per_secret,
            seed,
            ..*collect
        }
    }

    fn collect(
        host: &Host,
        vm: VmId,
        vcpu: usize,
        target: &DnnZoo,
        events: &[EventId],
        collect: &MeaConfig,
        defense: Option<&DefenseDeployment>,
    ) -> Result<MeaRunLog, AegisError> {
        mea_runs_impl(host, vm, vcpu, target, events, collect, defense).map(MeaRunLog)
    }

    fn fit(data: &MeaRunLog, seed: u64) -> Self {
        Self::train(&data.0, seed)
    }

    fn learning_curve(data: &MeaRunLog, increments: usize, seed: u64) -> TrainingCurve {
        Self::fit_slices(&data.0, increments, seed).curve
    }

    fn score(&self, data: &MeaRunLog) -> f64 {
        self.sequence_accuracy(&data.0)
    }
}

/// Latency and CPU-usage measurement of one app execution, with or
/// without the defense (Fig. 10 material).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunMeasurement {
    /// Wall (simulated) time to complete the app plan, nanoseconds.
    pub latency_ns: u64,
    /// VM CPU utilization over the run, in `[0, 1]`.
    pub cpu_usage: f64,
}

/// Runs one app plan to completion and measures latency and CPU usage.
///
/// # Errors
///
/// Returns [`AegisError::Host`] for invalid ids, or if the app fails to
/// finish within 10× its nominal duration.
pub fn measure_app_run(
    host: &mut Host,
    vm: VmId,
    vcpu: usize,
    plan: WorkloadPlan,
    defense: Option<&DefenseDeployment>,
    seed: u64,
) -> Result<RunMeasurement, AegisError> {
    let mut span = obs::span("measure.app_run");
    let nominal = plan.duration_ns();
    host.attach_app(vm, vcpu, Box::new(PlanSource::new(plan)))?;
    match defense {
        Some(d) => {
            d.deploy(host, vm, vcpu, seed)?;
        }
        None => host.detach_injector(vm, vcpu)?,
    }
    host.reset_vm_stats(vm)?;
    let latency = host
        .run_until_app_done(vm, vcpu, nominal.saturating_mul(10).max(1_000_000))?
        .ok_or(HostError::UnknownVcpu(vm, vcpu))?;
    let cpu = host.vm_cpu_usage(vm)?;
    host.detach_injector(vm, vcpu)?;
    span.set_sim_ns(latency);
    Ok(RunMeasurement {
        latency_ns: latency,
        cpu_usage: cpu,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::MechanismChoice;
    use aegis_microarch::MicroArch;
    use aegis_obfuscator::{GadgetStack, ObfuscatorConfig};
    use aegis_sev::SevMode;
    use aegis_workloads::KeystrokeApp;

    fn host_vm() -> (Host, VmId) {
        let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 3);
        let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
        (host, vm)
    }

    fn quick_collect() -> CollectConfig {
        CollectConfig {
            traces_per_secret: 16,
            window_ns: 300_000_000,
            interval_ns: 2_000_000,
            pool: 25,
            seed: 7,
            per_secret_noise: false,
        }
    }

    /// The scalar per-fork reference for [`dataset_impl`]: one detached
    /// fork and one [`Host::record_trace`] per `(secret, rep)` unit. Kept
    /// as the bit-exact oracle the batched path is pinned against.
    fn dataset_impl_scalar(
        host: &Host,
        vm: VmId,
        vcpu: usize,
        app: &dyn SecretApp,
        events: &[EventId],
        cfg: &CollectConfig,
        defense: Option<&DefenseDeployment>,
    ) -> Result<Dataset, AegisError> {
        let core_idx = host.core_of(vm, vcpu)?;
        let units: Vec<(usize, usize)> = (0..app.n_secrets())
            .flat_map(|s| (0..cfg.traces_per_secret).map(move |r| (s, r)))
            .collect();
        let rows: Vec<Result<(Vec<f64>, usize), aegis_perf::PerfError>> = Executor::from_config()
            .map(units, |unit, (secret, _rep)| {
                let mut replica = host.fork_detached();
                let mut rng =
                    StdRng::seed_from_u64(derive_seed(cfg.seed, STREAM_PLAN, unit as u64));
                let plan = app.sample_plan(secret, &mut rng);
                replica
                    .attach_app(vm, vcpu, Box::new(PlanSource::new(plan)))
                    .expect("ids were validated on the original host");
                if let Some(d) = defense {
                    let noise_unit = if cfg.per_secret_noise {
                        secret as u64
                    } else {
                        unit as u64
                    };
                    d.deploy(
                        &mut replica,
                        vm,
                        vcpu,
                        derive_seed(cfg.seed, STREAM_NOISE, noise_unit),
                    )
                    .expect("ids were validated on the original host");
                }
                let trace = replica
                    .record_trace(
                        &[core_idx],
                        events,
                        OriginFilter::Any,
                        cfg.interval_ns,
                        cfg.window_ns.min(app.window_ns()),
                    )?
                    .remove(0);
                Ok((aegis_attack::trace_features(&trace, cfg.pool), secret))
            });
        let mut ds = Dataset::new(Vec::new(), Vec::new(), app.n_secrets());
        for row in rows {
            let (features, secret) = row.map_err(AegisError::from)?;
            ds.push(features, secret);
        }
        Ok(ds)
    }

    fn test_deployment(host: &Host) -> DefenseDeployment {
        use aegis_fuzzer::Gadget;
        use aegis_isa::{IsaCatalog, Vendor, WellKnown};
        let isa = IsaCatalog::synthetic(Vendor::Amd, 7);
        let mut core = aegis_microarch::Core::new(host.arch(), 9);
        let stack = GadgetStack::calibrate(
            &isa,
            &mut core,
            vec![Gadget::new(WellKnown::Clflush.id(), WellKnown::Load64.id())],
            64,
        );
        DefenseDeployment {
            stack,
            mechanism: MechanismChoice::Laplace { epsilon: 0.25 },
            obfuscator: ObfuscatorConfig::default(),
        }
    }

    #[test]
    fn batched_dataset_bit_matches_the_scalar_forks() {
        let (host, vm) = host_vm();
        let app = KeystrokeApp::with_window(300_000_000);
        let core = host.core_of(vm, 0).unwrap();
        let events = host.core(core).catalog().attack_events().to_vec();
        // A tiny window keeps the test fast; 2 traces per secret still
        // crosses no tile boundary, so also run enough units to tile.
        let cfg = CollectConfig {
            traces_per_secret: 4, // 10 secrets × 4 = 40 units: two tiles
            window_ns: 6_000_000,
            interval_ns: 1_000_000,
            pool: 2,
            seed: 13,
            per_secret_noise: false,
        };
        let batched = dataset_impl(&host, vm, 0, &app, &events, &cfg, None).unwrap();
        let scalar = dataset_impl_scalar(&host, vm, 0, &app, &events, &cfg, None).unwrap();
        assert_eq!(batched, scalar, "clean datasets diverged");

        let d = test_deployment(&host);
        for per_secret_noise in [false, true] {
            let cfg = CollectConfig {
                per_secret_noise,
                ..cfg
            };
            let batched = dataset_impl(&host, vm, 0, &app, &events, &cfg, Some(&d)).unwrap();
            let scalar = dataset_impl_scalar(&host, vm, 0, &app, &events, &cfg, Some(&d)).unwrap();
            assert_eq!(
                batched, scalar,
                "defended datasets diverged (per_secret_noise={per_secret_noise})"
            );
        }
    }

    #[test]
    fn keystroke_attack_succeeds_clean_and_fails_defended() {
        let (host, vm) = host_vm();
        // A compressed keystroke window so the quick test's 300 ms
        // monitoring window sees every burst.
        let app = KeystrokeApp::with_window(300_000_000);
        let core = host.core_of(vm, 0).unwrap();
        let events = host.core(core).catalog().attack_events().to_vec();
        let cfg = quick_collect();

        let collector = Collector::from_parts(cfg, MeaConfig::default());
        let clean = collector
            .dataset(&host, vm, 0, &app, &events, None)
            .unwrap();
        assert_eq!(clean.len(), 10 * cfg.traces_per_secret);
        let attack = ClassifierAttack::fit(&clean, 7);
        let clean_acc = attack.curve.final_val_acc();
        assert!(clean_acc > 0.8, "clean accuracy {clean_acc}");

        // Defended victim traces.
        let deployment = test_deployment(&host);
        let mut victim_cfg = cfg;
        victim_cfg.seed = 99;
        let victim = Collector::from_parts(victim_cfg, MeaConfig::default());
        let defended = victim
            .dataset(&host, vm, 0, &app, &events, Some(&deployment))
            .unwrap();
        let def_acc = attack.accuracy(&defended);
        assert!(
            def_acc < clean_acc * 0.6,
            "defense must hurt the attack: clean {clean_acc} defended {def_acc}"
        );
    }

    /// A noisy three-class dataset: `n` samples of 4 features.
    fn noisy_dataset(n: usize) -> Dataset {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(21);
        let mut ds = Dataset::new(Vec::new(), Vec::new(), 3);
        for i in 0..n {
            let c = i % 3;
            let f = (0..4)
                .map(|j| c as f64 * 0.4 + j as f64 * 0.1 + rng.gen::<f64>())
                .collect();
            ds.push(f, c);
        }
        ds
    }

    /// Fig. 1's curve ends on the deployed attacker's point, bit for
    /// bit: its last prefix is the whole training split.
    fn assert_curve_ends_on_fit(curve: &TrainingCurve, fit: &TrainingCurve) {
        let bits = |e: &EpochStats| [e.train_loss, e.train_acc, e.val_acc].map(f64::to_bits);
        assert_eq!(curve.epochs.len(), 60);
        assert_eq!(fit.epochs.len(), 1);
        assert_eq!(bits(curve.epochs.last().unwrap()), bits(&fit.epochs[0]));
        assert_eq!(
            curve.final_val_acc().to_bits(),
            fit.final_val_acc().to_bits()
        );
    }

    #[test]
    fn learning_curve_ends_on_the_fitted_classifier() {
        let ds = noisy_dataset(150);
        let fit = ClassifierAttack::fit(&ds, 7);
        assert_curve_ends_on_fit(&ClassifierAttack::learning_curve(&ds, 60, 7), &fit.curve);
        // The retained signature trains the same model.
        assert_eq!(ClassifierAttack::train(&ds, TrainConfig::default(), 7), fit);
    }

    #[test]
    fn learning_curve_ends_on_the_fitted_mea_attacker() {
        let ds = noisy_dataset(120);
        let runs = MeaRunLog(
            (0..4)
                .map(|m| {
                    let rows = (m * 30..(m + 1) * 30).map(|i| ds.samples.row(i).to_vec());
                    let labels = ds.labels[m * 30..(m + 1) * 30].to_vec();
                    let run = MeaRun {
                        slices: rows.collect(),
                        slice_labels: labels,
                        truth: vec![0, 1, 2],
                    };
                    (m, run)
                })
                .collect(),
        );
        let fit = MeaAttack::fit(&runs, 7);
        assert_curve_ends_on_fit(&MeaAttack::learning_curve(&runs, 60, 7), &fit.slices.curve);
    }

    #[test]
    fn attack_models_and_mea_runs_roundtrip_columnar_bit_exactly() {
        // A small separable dataset trains a real attacker whose frames
        // must decode to bit-identical predictions.
        let mut ds = Dataset::new(Vec::new(), Vec::new(), 3);
        for i in 0..30 {
            let c = i % 3;
            let f: Vec<f64> = (0..4)
                .map(|j| c as f64 + (i as f64) * 0.013 + (j as f64) * 0.07)
                .collect();
            ds.push(f, c);
        }
        let attack = ClassifierAttack::fit(&ds, 7);
        let back = ClassifierAttack::from_frame(attack.to_frame()).unwrap();
        assert_eq!(attack, back);
        assert_eq!(attack.accuracy(&ds).to_bits(), back.accuracy(&ds).to_bits());

        // The MEA composite shares the layout.
        let mea = MeaAttack {
            slices: attack.clone(),
        };
        let mea_back = MeaAttack::from_frame(mea.to_frame()).unwrap();
        assert_eq!(mea, mea_back);

        // Ragged hand-built runs exercise the meta/cursor layout,
        // including an empty run.
        let runs = MeaRunLog(vec![
            (
                2,
                MeaRun {
                    slices: vec![vec![1.0, -0.5], vec![f64::MIN_POSITIVE]],
                    slice_labels: vec![0, BLANK],
                    truth: vec![0, 3, 1],
                },
            ),
            (
                0,
                MeaRun {
                    slices: Vec::new(),
                    slice_labels: Vec::new(),
                    truth: vec![2],
                },
            ),
        ]);
        let runs_back = MeaRunLog::from_frame(runs.to_frame()).unwrap();
        assert_eq!(runs, runs_back);

        // A frame whose pages disagree with its meta column is rejected,
        // never silently misread: replace the truth column with a short
        // page.
        let mut rebuilt = runs.to_frame();
        rebuilt.pop();
        rebuilt.push_u64(vec![0]);
        assert!(MeaRunLog::from_frame(rebuilt).is_err());
    }

    #[test]
    fn measure_app_run_reports_overheads() {
        let (mut host, vm) = host_vm();
        let app = KeystrokeApp::new();
        let mut rng = StdRng::seed_from_u64(5);
        let plan = app.sample_plan(5, &mut rng);
        let base = measure_app_run(&mut host, vm, 0, plan.clone(), None, 1).unwrap();
        let deployment = test_deployment(&host);
        let defended = measure_app_run(&mut host, vm, 0, plan, Some(&deployment), 1).unwrap();
        assert!(
            defended.cpu_usage > base.cpu_usage,
            "{defended:?} vs {base:?}"
        );
        assert!(defended.latency_ns >= base.latency_ns);
    }
}
