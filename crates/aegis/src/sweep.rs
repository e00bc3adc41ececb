//! The cached ε-sweep grid behind the paper's defense-effectiveness
//! figures (Fig. 9a/b): attack accuracy as a function of the privacy
//! budget ε for both mechanisms (Laplace and d*), for the clean-trained
//! and the robust (noisy-trained) attacker.
//!
//! The grid is flattened into independent (ε, mechanism) *cells*. Each
//! cell is a deterministic task:
//!
//! * its RNG streams are derived from `(sweep seed, ε bits, mechanism
//!   index)` via [`derive_seed`] — never from the grid position or the
//!   worker that happens to run it, so the grid is bit-identical at any
//!   worker count;
//! * its expensive artifacts — collected noisy datasets / MEA runs and
//!   trained models — are memoized through [`ArtifactCache`] under a
//!   content-addressed [`ArtifactKey`] of their complete inputs, in the
//!   columnar `.acs` format whose pages are bit-exact images of the
//!   in-memory `f64`/`u64` buffers — a warm-cache run is bit-identical
//!   to a cold one and loads each artifact as a handful of bulk reads;
//! * under an active fault plan the grid runs in worker-count chunks
//!   through [`run_checkpointed`] (the same loop the fuzzer's recording
//!   pass uses), so a run killed mid-grid resumes to a bit-identical
//!   [`SweepOutcome`];
//! * its wall time is attributed by `aegis-obs` spans: `sweep.cell`
//!   around the whole cell, with the nested `collect.dataset` /
//!   `collect.mea` / `attack.train` spans and a `sweep.eval` span
//!   splitting collect vs train vs eval time per cell.
//!
//! Model artifacts share their key recipe with
//! [`ClassifierAttack::train_cached`] / [`MeaAttack::train_cached`], so
//! a sweep and a direct call hit the same cache entries.

use crate::error::AegisError;
use crate::evaluate::{
    dataset_impl, mea_runs_impl, ClassifierAttack, CollectConfig, MeaAttack, MeaConfig, MeaRunLog,
};
use crate::pipeline::{DefenseDeployment, MechanismChoice};
use aegis_attack::TrainConfig;
use aegis_microarch::EventId;
use aegis_obs as obs;
use aegis_par::{
    derive_seed, fingerprint, run_checkpointed, ArtifactCache, ArtifactKey, ColumnFrame,
    ColumnSchema, Columnar, Executor, FrameError, FrameReader, RowLog,
};
use aegis_sev::{Host, VmId};
use aegis_workloads::{DnnZoo, SecretApp};

/// Stream tags separating the independent RNG consumers of one sweep
/// seed (see [`derive_seed`]). Disjoint from the collection streams in
/// `evaluate` (0x01–0x04).
const STREAM_EPS: u64 = 0x10;
const STREAM_MECH: u64 = 0x11;
const STREAM_VICTIM: u64 = 0x12;
const STREAM_TRAIN: u64 = 0x13;
const STREAM_MODEL: u64 = 0x14;

/// The mechanisms of one grid column, in output order.
pub const SWEEP_MECHANISMS: [&str; 2] = ["laplace", "dstar"];

fn mechanism(idx: usize, eps: f64) -> MechanismChoice {
    match idx {
        0 => MechanismChoice::Laplace { epsilon: eps },
        _ => MechanismChoice::DStar { epsilon: eps },
    }
}

/// Sweep-wide settings shared by every cell.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The ε grid (one row per value, in order).
    pub eps_grid: Vec<f64>,
    /// Master sweep seed; every cell stream derives from it.
    pub seed: u64,
    /// The seed the measured [`Host`] was built with — folded into the
    /// cache keys so artifacts from different substrates never collide.
    pub host_seed: u64,
    /// Attacker training settings (also part of the model cache keys).
    pub train: TrainConfig,
    /// Defended victim (test) traces per secret.
    pub victim_traces_per_secret: usize,
    /// Noisy training traces per secret for the robust attacker
    /// (ignored when a clean attacker is supplied).
    pub robust_traces_per_secret: usize,
    /// Defended victim runs per model for the MEA sweep.
    pub victim_runs_per_model: usize,
}

/// One evaluated (ε, mechanism) grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// The privacy budget of this cell.
    pub epsilon: f64,
    /// Mechanism name (one of [`SWEEP_MECHANISMS`]).
    pub mechanism: &'static str,
    /// Attack accuracy on the defended victim traces.
    pub accuracy: f64,
}

/// A completed sweep: cells in (ε, mechanism) grid order plus the cache
/// traffic its cells generated — cold runs report all misses, warm runs
/// all hits, with bit-identical `cells` either way.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Evaluated cells: for each ε in grid order, one cell per
    /// mechanism in [`SWEEP_MECHANISMS`] order.
    pub cells: Vec<SweepCell>,
    /// Artifacts served from the cache.
    pub cache_hits: u64,
    /// Artifacts computed and stored.
    pub cache_misses: u64,
}

impl SweepOutcome {
    /// The grid as table rows: `(ε, laplace accuracy, d* accuracy)`.
    pub fn rows(&self) -> Vec<(f64, f64, f64)> {
        self.cells
            .chunks(SWEEP_MECHANISMS.len())
            .map(|pair| (pair[0].epsilon, pair[0].accuracy, pair[1].accuracy))
            .collect()
    }
}

/// Per-cell cache bookkeeping, merged into the [`SweepOutcome`].
#[derive(Default)]
struct CellStats {
    hits: u64,
    misses: u64,
}

/// Memoizes `compute` under a content-addressed key in the columnar
/// store, counting the hit or miss. A legacy JSON entry under the same
/// key (from a pre-columnar cache) is migrated transparently on first
/// read.
fn cached_col<T, F>(
    cache: &ArtifactCache,
    key: &ArtifactKey,
    stats: &mut CellStats,
    compute: F,
) -> Result<T, AegisError>
where
    T: Columnar + serde::Deserialize,
    F: FnOnce() -> Result<T, AegisError>,
{
    if let Some(hit) = cache.get_col_or_json::<T>(key) {
        stats.hits += 1;
        return Ok(hit);
    }
    stats.misses += 1;
    let value = compute()?;
    let _ = cache.put_col(key, &value);
    Ok(value)
}

/// The checkpointable payload of a partially evaluated grid: per-cell
/// accuracy and cache traffic, in unit order.
struct CellLog {
    acc: Vec<f64>,
    hits: Vec<u64>,
    misses: Vec<u64>,
}

impl RowLog for CellLog {
    type Row = (f64, CellStats);

    fn of(rows: &[(f64, CellStats)]) -> CellLog {
        CellLog {
            acc: rows.iter().map(|(acc, _)| *acc).collect(),
            hits: rows.iter().map(|(_, stats)| stats.hits).collect(),
            misses: rows.iter().map(|(_, stats)| stats.misses).collect(),
        }
    }

    fn into_rows(self) -> Vec<(f64, CellStats)> {
        self.acc
            .into_iter()
            .zip(self.hits)
            .zip(self.misses)
            .map(|((acc, hits), misses)| (acc, CellStats { hits, misses }))
            .collect()
    }
}

impl Columnar for CellLog {
    fn schema() -> ColumnSchema {
        ColumnSchema::new("aegis/sweep-cells", 1)
    }

    fn encode_columns(&self, frame: &mut ColumnFrame) {
        frame.push_f64(self.acc.clone());
        frame.push_u64(self.hits.clone());
        frame.push_u64(self.misses.clone());
    }

    fn decode_columns(reader: &mut FrameReader) -> Result<Self, FrameError> {
        let acc = reader.f64s()?;
        let hits = reader.u64s()?;
        let misses = reader.u64s()?;
        if hits.len() != acc.len() || misses.len() != acc.len() {
            return Err(FrameError::new(format!(
                "sweep-cells: misaligned columns ({} acc, {} hits, {} misses)",
                acc.len(),
                hits.len(),
                misses.len()
            )));
        }
        Ok(CellLog { acc, hits, misses })
    }
}

/// A stable fingerprint of the sweep-wide settings, folded into the
/// checkpoint key so a changed grid or budget never resumes a stale
/// checkpoint.
fn sweep_fingerprint(cfg: &SweepConfig) -> u64 {
    fingerprint(&(
        &cfg.eps_grid,
        cfg.seed,
        cfg.host_seed,
        &cfg.train,
        cfg.victim_traces_per_secret as u64,
        cfg.robust_traces_per_secret as u64,
        cfg.victim_runs_per_model as u64,
    ))
}

/// The seed of one grid cell: a pure function of the sweep seed, the ε
/// value, and the mechanism index — independent of grid position and
/// worker assignment.
fn cell_seed(cfg: &SweepConfig, eps: f64, mech_idx: usize) -> u64 {
    derive_seed(
        derive_seed(cfg.seed, STREAM_EPS, eps.to_bits()),
        STREAM_MECH,
        mech_idx as u64,
    )
}

/// Flattens the ε grid into (ε, mechanism-index) cells.
fn grid_units(cfg: &SweepConfig) -> Vec<(f64, usize)> {
    cfg.eps_grid
        .iter()
        .flat_map(|&eps| (0..SWEEP_MECHANISMS.len()).map(move |m| (eps, m)))
        .collect()
}

/// Assembles per-cell results (in grid order) into a [`SweepOutcome`].
fn assemble(units: Vec<(f64, usize)>, results: Vec<(f64, CellStats)>) -> SweepOutcome {
    let mut out = SweepOutcome {
        cells: Vec::with_capacity(units.len()),
        cache_hits: 0,
        cache_misses: 0,
    };
    for ((eps, mech_idx), (accuracy, stats)) in units.into_iter().zip(results) {
        out.cache_hits += stats.hits;
        out.cache_misses += stats.misses;
        out.cells.push(SweepCell {
            epsilon: eps,
            mechanism: SWEEP_MECHANISMS[mech_idx],
            accuracy,
        });
    }
    out
}

/// Runs the classification sweep (WFA/KSA rows of Fig. 9a/b): for every
/// (ε, mechanism) cell, collect defended victim traces and score the
/// attacker on them.
///
/// With `clean_attacker` set, the supplied clean-trained model is
/// evaluated directly (Fig. 9a). Without it, a *robust* attacker is
/// first trained on defended traces of the same cell (Fig. 9b).
///
/// Cells shard across the configured worker pool, each replaying
/// against a pristine fork of `host`; collected datasets and trained
/// models are memoized through `cache`. Output is bit-identical for any
/// worker count and any cache state.
///
/// # Errors
///
/// Returns [`AegisError::Host`] for invalid ids, or [`AegisError::Fault`]
/// when an injected fault escalates inside a cell.
#[allow(clippy::too_many_arguments)] // the testbed handle plus one knob per plane
pub fn classification_sweep(
    host: &Host,
    vm: VmId,
    vcpu: usize,
    app: &dyn SecretApp,
    events: &[EventId],
    collect: &CollectConfig,
    base: &DefenseDeployment,
    clean_attacker: Option<&ClassifierAttack>,
    cfg: &SweepConfig,
    cache: &ArtifactCache,
) -> Result<SweepOutcome, AegisError> {
    let units = grid_units(cfg);
    let snapshot: &Host = host;
    let ckpt_key = ArtifactKey::of(
        "sweep-ckpt",
        &(
            "classification",
            clean_attacker.is_some(),
            dataset_key(cfg, app, events, collect, base),
            sweep_fingerprint(cfg),
        ),
    );
    let eval = |chunk: &[(f64, usize)]| {
        Executor::from_config().map_with(
            chunk.to_vec(),
            |_worker| {
                let pristine = snapshot.fork_detached();
                let arena = pristine.fork_detached();
                (pristine, arena)
            },
            |(pristine, replica), _unit, (eps, mech_idx)| {
                let _cell = obs::span("sweep.cell");
                let mut stats = CellStats::default();
                let seed = cell_seed(cfg, eps, mech_idx);
                let deployment = DefenseDeployment {
                    stack: base.stack.clone(),
                    mechanism: mechanism(mech_idx, eps),
                    obfuscator: base.obfuscator,
                };
                // In-place fork into the worker's reusable replica arena.
                pristine.fork_detached_into(replica);

                // Defended victim (test) traces.
                let mut victim_cfg = *collect;
                victim_cfg.traces_per_secret = cfg.victim_traces_per_secret;
                victim_cfg.seed = derive_seed(seed, STREAM_VICTIM, 0);
                let victim = cached_col(
                    cache,
                    &ArtifactKey::raw(
                        "noisy-dataset",
                        dataset_key(cfg, app, events, &victim_cfg, &deployment),
                    ),
                    &mut stats,
                    || {
                        dataset_impl(
                            &mut *replica,
                            vm,
                            vcpu,
                            app,
                            events,
                            &victim_cfg,
                            Some(&deployment),
                        )
                    },
                )?;

                let accuracy = match clean_attacker {
                    Some(attacker) => {
                        let _eval = obs::span("sweep.eval");
                        attacker.accuracy(&victim)
                    }
                    None => {
                        // Robust attacker: trains AND tests on defended traces.
                        let mut train_collect = *collect;
                        train_collect.traces_per_secret = cfg.robust_traces_per_secret;
                        train_collect.seed = derive_seed(seed, STREAM_TRAIN, 0);
                        let noisy = cached_col(
                            cache,
                            &ArtifactKey::raw(
                                "noisy-dataset",
                                dataset_key(cfg, app, events, &train_collect, &deployment),
                            ),
                            &mut stats,
                            || {
                                dataset_impl(
                                    &mut *replica,
                                    vm,
                                    vcpu,
                                    app,
                                    events,
                                    &train_collect,
                                    Some(&deployment),
                                )
                            },
                        )?;
                        let model_seed = derive_seed(seed, STREAM_MODEL, 0);
                        // Same key recipe as `ClassifierAttack::train_cached`,
                        // so both paths share artifacts.
                        let attacker = cached_col(
                            cache,
                            &ArtifactKey::raw(
                                "attack-model",
                                fingerprint(&(&noisy, &cfg.train, model_seed)),
                            ),
                            &mut stats,
                            || Ok(ClassifierAttack::train(&noisy, cfg.train, model_seed)),
                        )?;
                        let _eval = obs::span("sweep.eval");
                        attacker.accuracy(&victim)
                    }
                };
                Ok((accuracy, stats))
            },
        )
    };
    let results = run_checkpointed::<CellLog, _, AegisError, _>(
        cache,
        &cache.fault_plan(),
        &ckpt_key,
        "sweep",
        &units,
        Executor::from_config().threads(),
        |chunk| eval(chunk).into_iter().collect(),
    )?;
    Ok(assemble(units, results))
}

/// Runs the model-extraction sweep (MEA row of Fig. 9a): for every
/// (ε, mechanism) cell, collect defended inference runs and score the
/// sequence attacker on them. Semantics mirror [`classification_sweep`].
///
/// # Errors
///
/// Returns [`AegisError::Host`] for invalid ids, or [`AegisError::Fault`]
/// when an injected fault escalates inside a cell.
#[allow(clippy::too_many_arguments)] // the testbed handle plus one knob per plane
pub fn mea_sweep(
    host: &Host,
    vm: VmId,
    vcpu: usize,
    zoo: &DnnZoo,
    events: &[EventId],
    collect: &MeaConfig,
    base: &DefenseDeployment,
    clean_attacker: Option<&MeaAttack>,
    cfg: &SweepConfig,
    cache: &ArtifactCache,
) -> Result<SweepOutcome, AegisError> {
    let units = grid_units(cfg);
    let snapshot: &Host = host;
    let ckpt_key = ArtifactKey::of(
        "sweep-ckpt",
        &(
            "mea",
            clean_attacker.is_some(),
            mea_key(cfg, zoo, events, collect, base),
            sweep_fingerprint(cfg),
        ),
    );
    let eval = |chunk: &[(f64, usize)]| {
        Executor::from_config().map_with(
            chunk.to_vec(),
            |_worker| {
                let pristine = snapshot.fork_detached();
                let arena = pristine.fork_detached();
                (pristine, arena)
            },
            |(pristine, replica), _unit, (eps, mech_idx)| {
                let _cell = obs::span("sweep.cell");
                let mut stats = CellStats::default();
                let seed = cell_seed(cfg, eps, mech_idx);
                let deployment = DefenseDeployment {
                    stack: base.stack.clone(),
                    mechanism: mechanism(mech_idx, eps),
                    obfuscator: base.obfuscator,
                };
                // In-place fork into the worker's reusable replica arena.
                pristine.fork_detached_into(replica);

                let mut victim_cfg = *collect;
                victim_cfg.runs_per_model = cfg.victim_runs_per_model;
                victim_cfg.seed = derive_seed(seed, STREAM_VICTIM, 0);
                let victim: MeaRunLog = cached_col(
                    cache,
                    &ArtifactKey::raw(
                        "noisy-mea-runs",
                        mea_key(cfg, zoo, events, &victim_cfg, &deployment),
                    ),
                    &mut stats,
                    || {
                        Ok(MeaRunLog(mea_runs_impl(
                            &mut *replica,
                            vm,
                            vcpu,
                            zoo,
                            events,
                            &victim_cfg,
                            Some(&deployment),
                        )?))
                    },
                )?;

                let accuracy = match clean_attacker {
                    Some(attacker) => {
                        let _eval = obs::span("sweep.eval");
                        attacker.sequence_accuracy(&victim.0)
                    }
                    None => {
                        let mut train_collect = *collect;
                        train_collect.seed = derive_seed(seed, STREAM_TRAIN, 0);
                        let noisy: MeaRunLog = cached_col(
                            cache,
                            &ArtifactKey::raw(
                                "noisy-mea-runs",
                                mea_key(cfg, zoo, events, &train_collect, &deployment),
                            ),
                            &mut stats,
                            || {
                                Ok(MeaRunLog(mea_runs_impl(
                                    &mut *replica,
                                    vm,
                                    vcpu,
                                    zoo,
                                    events,
                                    &train_collect,
                                    Some(&deployment),
                                )?))
                            },
                        )?;
                        let model_seed = derive_seed(seed, STREAM_MODEL, 0);
                        // Same key recipe as `MeaAttack::train_cached`.
                        let attacker = cached_col(
                            cache,
                            &ArtifactKey::raw(
                                "mea-model",
                                fingerprint(&(&noisy.0, &cfg.train, model_seed)),
                            ),
                            &mut stats,
                            || Ok(MeaAttack::train(&noisy.0, cfg.train, model_seed)),
                        )?;
                        let _eval = obs::span("sweep.eval");
                        attacker.sequence_accuracy(&victim.0)
                    }
                };
                Ok((accuracy, stats))
            },
        )
    };
    let results = run_checkpointed::<CellLog, _, AegisError, _>(
        cache,
        &cache.fault_plan(),
        &ckpt_key,
        "sweep",
        &units,
        Executor::from_config().threads(),
        |chunk| eval(chunk).into_iter().collect(),
    )?;
    Ok(assemble(units, results))
}

/// Cache key of one collected classification dataset: the complete set
/// of inputs collection is a pure function of — substrate (host seed),
/// workload, event list, collection settings (including the derived
/// per-cell seed), and the full deployment.
fn dataset_key(
    cfg: &SweepConfig,
    app: &dyn SecretApp,
    events: &[EventId],
    collect: &CollectConfig,
    deployment: &DefenseDeployment,
) -> u64 {
    fingerprint(&(
        cfg.host_seed,
        app.name().to_string(),
        app.n_secrets() as u64,
        events.to_vec(),
        *collect,
        &deployment.stack,
        &deployment.mechanism,
        &deployment.obfuscator,
    ))
}

/// Cache key of one collected set of MEA runs (see [`dataset_key`]).
fn mea_key(
    cfg: &SweepConfig,
    zoo: &DnnZoo,
    events: &[EventId],
    collect: &MeaConfig,
    deployment: &DefenseDeployment,
) -> u64 {
    fingerprint(&(
        cfg.host_seed,
        zoo.name().to_string(),
        zoo.n_secrets() as u64,
        events.to_vec(),
        *collect,
        &deployment.stack,
        &deployment.mechanism,
        &deployment.obfuscator,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegis_fuzzer::Gadget;
    use aegis_isa::{IsaCatalog, Vendor, WellKnown};
    use aegis_microarch::MicroArch;
    use aegis_obfuscator::{GadgetStack, ObfuscatorConfig};
    use aegis_sev::SevMode;
    use aegis_workloads::KeystrokeApp;

    fn host_vm(seed: u64) -> (Host, VmId) {
        let mut host = Host::new(MicroArch::AmdEpyc7252, 2, seed);
        let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
        (host, vm)
    }

    fn test_deployment(host: &Host) -> DefenseDeployment {
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

    fn quick_sweep_cfg() -> SweepConfig {
        SweepConfig {
            eps_grid: vec![0.25, 4.0],
            seed: 11,
            host_seed: 3,
            train: TrainConfig::default(),
            victim_traces_per_secret: 2,
            robust_traces_per_secret: 3,
            victim_runs_per_model: 1,
        }
    }

    #[test]
    fn grid_cells_are_in_row_major_mechanism_order() {
        let cfg = quick_sweep_cfg();
        let units = grid_units(&cfg);
        assert_eq!(units, vec![(0.25, 0), (0.25, 1), (4.0, 0), (4.0, 1)]);
    }

    #[test]
    fn cell_seeds_ignore_grid_position() {
        let mut cfg = quick_sweep_cfg();
        let before = cell_seed(&cfg, 4.0, 1);
        // Growing or reordering the grid must not move existing cells.
        cfg.eps_grid = vec![4.0, 0.25, 1.0];
        assert_eq!(cell_seed(&cfg, 4.0, 1), before);
        assert_ne!(cell_seed(&cfg, 4.0, 0), before);
        assert_ne!(cell_seed(&cfg, 0.25, 1), before);
    }

    #[test]
    fn robust_sweep_is_deterministic_and_counts_cache_traffic() {
        let (host, vm) = host_vm(3);
        let core = host.core_of(vm, 0).unwrap();
        let events = host.core(core).catalog().attack_events().to_vec();
        let app = KeystrokeApp::with_window(300_000_000);
        let collect = CollectConfig {
            traces_per_secret: 4,
            window_ns: 300_000_000,
            interval_ns: 2_000_000,
            pool: 25,
            seed: 7,
            per_secret_noise: false,
        };
        let deployment = test_deployment(&host);
        let cfg = quick_sweep_cfg();

        let dir = std::env::temp_dir().join(format!("aegis-sweep-test-{}", std::process::id()));
        let cache = ArtifactCache::new(&dir);
        let cold = classification_sweep(
            &host, vm, 0, &app, &events, &collect, &deployment, None, &cfg, &cache,
        )
        .unwrap();
        let warm = classification_sweep(
            &host, vm, 0, &app, &events, &collect, &deployment, None, &cfg, &cache,
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        // 2 ε × 2 mechanisms × (victim + noisy + model) artifacts.
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.cache_misses, 12);
        assert_eq!(warm.cache_hits, 12);
        assert_eq!(warm.cache_misses, 0);
        // Warm results are bit-identical to cold ones.
        assert_eq!(cold.cells, warm.cells);
        assert_eq!(cold.rows().len(), 2);
        for cell in &cold.cells {
            assert!((0.0..=1.0).contains(&cell.accuracy), "{cell:?}");
        }
    }

    #[test]
    fn cell_log_roundtrips_and_rejects_misaligned_columns() {
        let log = CellLog {
            acc: vec![0.5, 0.25, 1.0],
            hits: vec![0, 2, 1],
            misses: vec![3, 1, 2],
        };
        let back = CellLog::from_frame(log.to_frame()).unwrap();
        assert_eq!(back.acc, log.acc);
        assert_eq!(back.hits, log.hits);
        assert_eq!(back.misses, log.misses);

        let mut frame = ColumnFrame::new();
        frame.push_f64(vec![0.5, 0.25]);
        frame.push_u64(vec![1]);
        frame.push_u64(vec![2, 3]);
        assert!(CellLog::from_frame(frame).is_err(), "misaligned columns");
    }

    #[test]
    fn killed_sweep_resumes_bit_identically() {
        use aegis_faults::FaultPlan;

        let (host, vm) = host_vm(3);
        let core = host.core_of(vm, 0).unwrap();
        let events = host.core(core).catalog().attack_events().to_vec();
        let app = KeystrokeApp::with_window(300_000_000);
        let collect = CollectConfig {
            traces_per_secret: 4,
            window_ns: 300_000_000,
            interval_ns: 2_000_000,
            pool: 25,
            seed: 7,
            per_secret_noise: false,
        };
        let deployment = test_deployment(&host);
        let cfg = quick_sweep_cfg();
        let run_with = |plan: FaultPlan, dir: &std::path::Path| -> SweepOutcome {
            let cache = ArtifactCache::with_faults(dir, plan);
            classification_sweep(
                &host, vm, 0, &app, &events, &collect, &deployment, None, &cfg, &cache,
            )
            .unwrap()
        };
        let tmp = |tag: &str| {
            let d = std::env::temp_dir().join(format!(
                "aegis-sweep-ckpt-{tag}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&d);
            d
        };
        // Reference: an active but sweep-irrelevant plan, so checkpointing
        // is armed in both runs and outcomes stay comparable.
        let base = FaultPlan {
            seed: 5,
            tick_jitter: 0.5,
            ..FaultPlan::none()
        };
        let dir_ref = tmp("ref");
        let reference = run_with(base, &dir_ref);

        // Kill the grid mid-run, then resume it from the persisted
        // checkpoint in the same cache.
        let kill_plan = FaultPlan {
            kill_after: 2,
            ..base
        };
        let dir_kill = tmp("kill");
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_with(kill_plan, &dir_kill)
        }));
        assert!(killed.is_err(), "the injected kill must abort the run");
        let resumed = run_with(kill_plan, &dir_kill);
        assert_eq!(reference, resumed);

        let _ = std::fs::remove_dir_all(&dir_ref);
        let _ = std::fs::remove_dir_all(&dir_kill);
    }

    #[test]
    fn clean_attacker_sweep_skips_training_artifacts() {
        let (host, vm) = host_vm(3);
        let core = host.core_of(vm, 0).unwrap();
        let events = host.core(core).catalog().attack_events().to_vec();
        let app = KeystrokeApp::with_window(300_000_000);
        let collect = CollectConfig {
            traces_per_secret: 4,
            window_ns: 300_000_000,
            interval_ns: 2_000_000,
            pool: 25,
            seed: 7,
            per_secret_noise: false,
        };
        let mut clean_host = host.fork_detached();
        let clean = dataset_impl(&mut clean_host, vm, 0, &app, &events, &collect, None).unwrap();
        let attacker = ClassifierAttack::train(&clean, TrainConfig::default(), 7);
        let deployment = test_deployment(&host);
        let cfg = quick_sweep_cfg();

        // A disabled cache still yields a correct (all-miss) outcome.
        let out = classification_sweep(
            &host,
            vm,
            0,
            &app,
            &events,
            &collect,
            &deployment,
            Some(&attacker),
            &cfg,
            &cache_disabled(),
        )
        .unwrap();
        assert_eq!(out.cells.len(), 4);
        assert_eq!(out.cache_hits, 0);
        // One victim dataset per cell, no training artifacts.
        assert_eq!(out.cache_misses, 4);
    }

    fn cache_disabled() -> ArtifactCache {
        ArtifactCache::disabled()
    }
}
