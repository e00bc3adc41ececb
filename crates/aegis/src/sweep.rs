//! The cached ε-sweep grid behind the paper's defense-effectiveness
//! figures (Fig. 9a/b): attack accuracy as a function of the privacy
//! budget ε for both mechanisms (Laplace and d*), for the clean-trained
//! and the robust (noisy-trained) attacker. One generic path,
//! [`run_sweep`], serves every [`Attacker`]: the classifier (WFA/KSA)
//! and the model-extraction (MEA) rows run the same cell loop.
//!
//! The grid is flattened into independent (ε, mechanism) *cells*. Each
//! cell is a deterministic task:
//!
//! * its RNG streams are derived from `(sweep seed, ε bits, mechanism
//!   index)` via [`derive_seed`] — never from the grid position or the
//!   worker that happens to run it, so the grid is bit-identical at any
//!   worker count;
//! * its expensive artifacts — collected defended data and trained
//!   models — are memoized through [`ArtifactCache`] under the
//!   attacker's [`Attacker::data_key`] / [`Attacker::model_key`], in the
//!   columnar `.acs` format whose pages are bit-exact images of the
//!   in-memory `f64`/`u64` buffers — a warm-cache run is bit-identical
//!   to a cold one and loads each artifact as a handful of bulk reads;
//! * the cache is the sweep's one resume path: a run restarted over a
//!   half-filled cache (killed mid-grid, or with a grown ε grid)
//!   recomputes only the artifacts it misses, its cells bit-identical to
//!   an uninterrupted run's, and its [`SweepOutcome`] counts its own
//!   lookups;
//! * its wall time is attributed by `aegis-obs` spans: `sweep.cell`
//!   around the whole cell, with the nested `collect.dataset` /
//!   `collect.mea` / `attack.train` spans and a `sweep.eval` span
//!   splitting collect vs train vs eval time per cell.
//!
//! Model artifacts share their key with [`Attacker::train_cached`], so a
//! sweep and a direct call hit the same cache entries.

use crate::error::AegisError;
use crate::evaluate::Attacker;
use crate::pipeline::{DefenseDeployment, MechanismChoice};
use aegis_microarch::EventId;
use aegis_obs as obs;
use aegis_par::{derive_seed, ArtifactCache, ArtifactKey, Columnar, Executor};
use aegis_sev::{Host, VmId};

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
    /// Defended victim (test) traces — MEA: runs — per secret.
    pub victim_per_secret: usize,
    /// Defended training traces (runs) per secret for the robust
    /// attacker (ignored when a clean attacker is supplied).
    pub robust_per_secret: usize,
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
/// store, counting the hit or miss.
fn cached<T: Columnar>(
    cache: &ArtifactCache,
    key: &ArtifactKey,
    stats: &mut CellStats,
    compute: impl FnOnce() -> Result<T, AegisError>,
) -> Result<T, AegisError> {
    if let Some(hit) = cache.get_col::<T>(key) {
        stats.hits += 1;
        return Ok(hit);
    }
    stats.misses += 1;
    let value = compute()?;
    let _ = cache.put_col(key, &value);
    Ok(value)
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

/// Runs one attacker's sweep (a row group of Fig. 9a/b): for every
/// (ε, mechanism) cell, collect defended victim data from `target` and
/// score the attacker on it.
///
/// With `clean_attacker` set, the supplied clean-trained model is
/// evaluated directly (Fig. 9a). Without it, a *robust* attacker is
/// first trained on defended data of the same cell (Fig. 9b).
///
/// Cells shard across the configured worker pool and collect from
/// `host` as it stands (collection never advances it); collected data
/// and trained models are memoized through `cache`. Output is
/// bit-identical for any worker count and any cache state.
///
/// # Errors
///
/// Returns [`AegisError::Host`] for invalid ids, or [`AegisError::Fault`]
/// when an injected fault escalates inside a cell.
#[allow(clippy::too_many_arguments)] // the testbed handle plus one knob per plane
pub fn run_sweep<A: Attacker>(
    host: &Host,
    vm: VmId,
    vcpu: usize,
    target: &A::Target,
    events: &[EventId],
    collect: &A::Collect,
    base: &DefenseDeployment,
    clean_attacker: Option<&A>,
    cfg: &SweepConfig,
    cache: &ArtifactCache,
) -> Result<SweepOutcome, AegisError> {
    let units = grid_units(cfg);
    let results = Executor::from_config().map(units.clone(), |_unit, (eps, mech_idx)| {
        let _cell = obs::span("sweep.cell");
        let mut stats = CellStats::default();
        let seed = cell_seed(cfg, eps, mech_idx);
        let deployment = DefenseDeployment {
            stack: base.stack.clone(),
            mechanism: mechanism(mech_idx, eps),
            obfuscator: base.obfuscator,
        };
        // One defended collection of this cell: `per_secret` traces
        // (MEA: runs) per secret on the cell stream `stream`.
        let mut defended = |per_secret: usize, stream: u64| {
            let c = A::configure(collect, per_secret, derive_seed(seed, stream, 0));
            let d = Some(&deployment);
            cached(
                cache,
                &A::data_key(cfg.host_seed, target, events, &c, d),
                &mut stats,
                || A::collect(host, vm, vcpu, target, events, &c, d),
            )
        };
        let victim = defended(cfg.victim_per_secret, STREAM_VICTIM)?;
        let robust;
        let attacker = match clean_attacker {
            Some(attacker) => attacker,
            None => {
                // Robust attacker: trains AND tests on defended data.
                let noisy = defended(cfg.robust_per_secret, STREAM_TRAIN)?;
                let model_seed = derive_seed(seed, STREAM_MODEL, 0);
                robust = cached(cache, &A::model_key(&noisy, model_seed), &mut stats, || {
                    Ok(A::fit(&noisy, model_seed))
                })?;
                &robust
            }
        };
        let _eval = obs::span("sweep.eval");
        Ok((attacker.score(&victim), stats))
    });
    let results = results.into_iter().collect::<Result<_, AegisError>>()?;
    Ok(assemble(units, results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{ClassifierAttack, CollectConfig, MeaAttack, MeaConfig};
    use aegis_faults::FaultPlan;
    use aegis_fuzzer::Gadget;
    use aegis_isa::{IsaCatalog, Vendor, WellKnown};
    use aegis_microarch::MicroArch;
    use aegis_obfuscator::{GadgetStack, ObfuscatorConfig};
    use aegis_sev::SevMode;
    use aegis_workloads::{DnnZoo, KeystrokeApp};

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
            victim_per_secret: 2,
            robust_per_secret: 3,
        }
    }

    fn quick_collect() -> CollectConfig {
        CollectConfig {
            traces_per_secret: 4,
            window_ns: 300_000_000,
            interval_ns: 2_000_000,
            pool: 25,
            seed: 7,
            per_secret_noise: false,
        }
    }

    /// The smallest MEA setup that runs: one run per model (the zoo's 30
    /// models) for victim and robust collections alike.
    fn quick_mea() -> (MeaConfig, SweepConfig) {
        let collect = MeaConfig {
            runs_per_model: 1,
            interval_ns: 1_000_000,
            pad_ns: 2_000_000,
            seed: 7,
        };
        let cfg = SweepConfig {
            victim_per_secret: 1,
            robust_per_secret: 1,
            ..quick_sweep_cfg()
        };
        (collect, cfg)
    }

    /// Runs `check` once per attacker: the keystroke classifier and the
    /// model-extraction attacker, each on its quick settings. The sweep
    /// it hands `check` runs the first `rows` values of the ε grid.
    fn for_each_attacker(check: impl Fn(&dyn Fn(&ArtifactCache, usize) -> SweepOutcome, &str)) {
        let (host, vm) = host_vm(3);
        let core = host.core_of(vm, 0).unwrap();
        let events = host.core(core).catalog().attack_events().to_vec();
        let deployment = test_deployment(&host);
        let app = KeystrokeApp::with_window(300_000_000);
        let (collect, cfg) = (quick_collect(), quick_sweep_cfg());
        let rows = |cfg: &SweepConfig, rows: usize| SweepConfig {
            eps_grid: cfg.eps_grid[..rows].to_vec(),
            ..cfg.clone()
        };
        check(
            &|cache, n| {
                run_sweep::<ClassifierAttack>(
                    &host,
                    vm,
                    0,
                    &app,
                    &events,
                    &collect,
                    &deployment,
                    None,
                    &rows(&cfg, n),
                    cache,
                )
                .unwrap()
            },
            "ksa",
        );
        let zoo = DnnZoo::new(7);
        let (mea, mea_cfg) = quick_mea();
        check(
            &|cache, n| {
                run_sweep::<MeaAttack>(
                    &host,
                    vm,
                    0,
                    &zoo,
                    &events,
                    &mea,
                    &deployment,
                    None,
                    &rows(&mea_cfg, n),
                    cache,
                )
                .unwrap()
            },
            "mea",
        );
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

    /// The artifacts `cache` holds intact: a torn write lands its half
    /// file at the final path but never journals it.
    fn intact_artifacts(cache: &ArtifactCache) -> u64 {
        let names = std::fs::read_dir(cache.dir()).unwrap();
        let journaled = |name: &str| {
            let stem = name.strip_suffix(".acs")?;
            let (kind, key) = stem.rsplit_once('-')?;
            let key = u64::from_str_radix(key, 16).ok()?;
            cache.manifest().entry(kind, key)
        };
        names
            .filter(|e| journaled(&e.as_ref().unwrap().file_name().to_string_lossy()).is_some())
            .count() as u64
    }

    #[test]
    fn robust_sweep_is_deterministic_and_counts_cache_traffic() {
        for_each_attacker(|sweep, tag| {
            let tmp = |run: &str| {
                let d = std::env::temp_dir().join(format!(
                    "aegis-sweep-test-{tag}-{run}-{}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&d);
                d
            };
            // 2 ε × 2 mechanisms × (victim + noisy + model) artifacts.
            // Under the ambient plan a torn write turns that artifact's
            // warm hit into a miss; the cells stay bit-identical.
            let ambient_dir = tmp("ambient");
            let ambient = ArtifactCache::new(&ambient_dir);
            let cold = sweep(&ambient, 2);
            let stored = intact_artifacts(&ambient);
            let warm = sweep(&ambient, 2);
            let _ = std::fs::remove_dir_all(&ambient_dir);
            assert_eq!((cold.cache_hits, cold.cache_misses), (0, 12), "{tag}");
            assert_eq!(
                warm.cache_hits, stored,
                "{tag}: one hit per intact artifact"
            );
            assert_eq!(warm.cache_hits + warm.cache_misses, 12, "{tag}");
            assert_eq!(warm.cells, cold.cells, "{tag}");
            assert_eq!(cold.rows().len(), 2, "{tag}");
            for cell in &cold.cells {
                assert!((0.0..=1.0).contains(&cell.accuracy), "{tag} {cell:?}");
            }

            // The exact counts are defined without torn writes. A sweep
            // restarted over a half-filled cache recomputes only what it
            // misses and counts its own lookups.
            let dir = tmp("exact");
            let cache = ArtifactCache::with_faults(&dir, FaultPlan::none());
            let first = sweep(&cache, 1);
            let resumed = sweep(&cache, 2);
            let warm = sweep(&cache, 2);
            let _ = std::fs::remove_dir_all(&dir);
            let traffic = |run: &SweepOutcome| (run.cache_hits, run.cache_misses);
            assert_eq!(traffic(&first), (0, 6), "{tag}");
            assert_eq!(traffic(&resumed), (6, 6), "{tag}");
            assert_eq!(traffic(&warm), (12, 0), "{tag}");
            assert_eq!(first.cells, cold.cells[..2], "{tag}");
            assert_eq!(resumed.cells, cold.cells, "{tag}");
            assert_eq!(warm.cells, cold.cells, "{tag}");
        });
    }

    #[test]
    fn clean_attacker_sweep_skips_training_artifacts() {
        let (host, vm) = host_vm(3);
        let core = host.core_of(vm, 0).unwrap();
        let events = host.core(core).catalog().attack_events().to_vec();
        let app = KeystrokeApp::with_window(300_000_000);
        let collect = quick_collect();
        let clean = ClassifierAttack::collect(&host, vm, 0, &app, &events, &collect, None).unwrap();
        let attacker = ClassifierAttack::fit(&clean, 7);
        let deployment = test_deployment(&host);
        let cfg = quick_sweep_cfg();

        // A disabled cache still yields a correct (all-miss) outcome.
        let out = run_sweep::<ClassifierAttack>(
            &host,
            vm,
            0,
            &app,
            &events,
            &collect,
            &deployment,
            Some(&attacker),
            &cfg,
            &ArtifactCache::disabled(),
        )
        .unwrap();
        assert_eq!(out.cells.len(), 4);
        assert_eq!(out.cache_hits, 0);
        // One victim dataset per cell, no training artifacts.
        assert_eq!(out.cache_misses, 4);
    }
}
