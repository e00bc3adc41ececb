//! The artifact-store loading plane: warm loads through the columnar
//! `.acs` format vs the legacy JSON path.
//!
//! * `store_kernel/dataset-load-*` — a collected [`Dataset`] (the
//!   largest artifact class the sweeps cache) reloaded from disk. The
//!   columnar path is one header parse plus bulk little-endian page
//!   reads into pre-sized buffers; the JSON path re-parses every
//!   element through the value tree.
//! * `store_kernel/model-load-*` — a trained [`ClassifierAttack`]
//!   (model + standardizer + learning curve) reloaded the same two
//!   ways.
//!
//! Both paths produce bit-identical values (`tests/store_format.rs`
//! enforces it); only the on-disk representation differs. The derived
//! `speedup-*-columnar-over-json` rows in `BENCH_store.json` are the
//! headline numbers; the acceptance bar is ≥ 4× (target ≥ 10×).

mod common;

use aegis::attack::Dataset;
use aegis::par::{set_threads, ArtifactCache, ArtifactKey};
use aegis::{Attacker, ClassifierAttack};
use common::BenchFile;
use criterion::{black_box, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A separable synthetic dataset big enough that parse cost shows.
fn synthetic_dataset(seed: u64, n: usize, dim: usize, k: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut samples = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let label = i % k;
        let row: Vec<f64> = (0..dim)
            .map(|j| rng.gen_range(-1.0..1.0) + (label * (j % 3)) as f64 * 0.5)
            .collect();
        samples.push(row);
        labels.push(label);
    }
    Dataset::new(samples, labels, k)
}

/// One store testbed: a cache directory holding the same dataset and
/// trained model in both on-disk formats.
struct StoreBed {
    dir: std::path::PathBuf,
    cache: ArtifactCache,
    ds_col: ArtifactKey,
    ds_json: ArtifactKey,
    model_col: ArtifactKey,
    model_json: ArtifactKey,
}

fn store_bed(tag: &str, n: usize, dim: usize) -> StoreBed {
    let dir = std::env::temp_dir().join(format!("aegis-store-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ArtifactCache::new(&dir);

    let ds = synthetic_dataset(5, n, dim, 6);
    let model = ClassifierAttack::fit(&ds, 9);

    // One key per format, so each read serves only its own file.
    let ds_col = ArtifactKey::raw("bench-dataset-col", 1);
    let ds_json = ArtifactKey::raw("bench-dataset-json", 2);
    let model_col = ArtifactKey::raw("bench-model-col", 3);
    let model_json = ArtifactKey::raw("bench-model-json", 4);
    cache.put_col(&ds_col, &ds).expect("bench dir is writable");
    cache
        .put_json(&ds_json, &ds)
        .expect("bench dir is writable");
    cache
        .put_col(&model_col, &model)
        .expect("bench dir is writable");
    cache
        .put_json(&model_json, &model)
        .expect("bench dir is writable");

    // Both formats must replay bit-identically before we time them.
    let from_col: Dataset = cache.get_col(&ds_col).expect("columnar page present");
    let from_json: Dataset = cache.get_json(&ds_json).expect("json page present");
    assert_eq!(from_col, ds);
    assert_eq!(from_json, ds);
    let m_col: ClassifierAttack = cache.get_col(&model_col).expect("columnar page present");
    let m_json: ClassifierAttack = cache.get_json(&model_json).expect("json page present");
    assert_eq!(m_col, model);
    assert_eq!(m_json, model);

    StoreBed {
        dir,
        cache,
        ds_col,
        ds_json,
        model_col,
        model_json,
    }
}

fn bench_store_loads(c: &mut Criterion) {
    let bed = store_bed("full", 400, 128);
    let mut g = c.benchmark_group("store_kernel");
    g.sample_size(5);
    g.bench_function("dataset-load-columnar", |b| {
        b.iter(|| black_box(bed.cache.get_col::<Dataset>(&bed.ds_col).unwrap()));
    });
    g.bench_function("dataset-load-json", |b| {
        b.iter(|| black_box(bed.cache.get_json::<Dataset>(&bed.ds_json).unwrap()));
    });
    g.bench_function("model-load-columnar", |b| {
        b.iter(|| {
            black_box(
                bed.cache
                    .get_col::<ClassifierAttack>(&bed.model_col)
                    .unwrap(),
            )
        });
    });
    g.bench_function("model-load-json", |b| {
        b.iter(|| {
            black_box(
                bed.cache
                    .get_json::<ClassifierAttack>(&bed.model_json)
                    .unwrap(),
            )
        });
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&bed.dir);
}

fn main() {
    set_threads(2);
    if std::env::var("AEGIS_BENCH_SMOKE").as_deref() == Ok("1") {
        // One tiny both-formats roundtrip: proves the bench compiles,
        // both load paths run, and they agree bit-exactly.
        let bed = store_bed("smoke", 24, 16);
        let a: Dataset = bed.cache.get_col(&bed.ds_col).unwrap();
        let b: Dataset = bed.cache.get_json(&bed.ds_json).unwrap();
        assert_eq!(a, b);
        let ma: ClassifierAttack = bed.cache.get_col(&bed.model_col).unwrap();
        let mb: ClassifierAttack = bed.cache.get_json(&bed.model_json).unwrap();
        assert_eq!(ma, mb);
        let _ = std::fs::remove_dir_all(&bed.dir);
        set_threads(1);
        eprintln!("[store_kernel smoke OK]");
        return;
    }

    let mut criterion = Criterion::default().configure_from_args();
    bench_store_loads(&mut criterion);
    set_threads(1);

    // The derived columnar-over-json speedups are the headline rows. The
    // bar is ≥ 4× on warm loads; enforce it here so a format regression
    // fails the bench run loudly instead of silently shipping a slow
    // store.
    let mut out = BenchFile::new(
        "store_kernel",
        "warm loads of a 400 x 128 dataset and a model trained on it, columnar .acs vs JSON",
    );
    out.sampled(criterion.results(), "store_kernel/", "store", None);
    for label in ["dataset", "model"] {
        let speedup = out.derive(
            format!("store_kernel/speedup-{label}-columnar-over-json"),
            "speedup",
            "x",
            &[
                format!("store_kernel/{label}-load-json"),
                format!("store_kernel/{label}-load-columnar"),
            ],
            |m| m[0] / m[1],
        );
        if let Some(speedup) = speedup {
            assert!(
                speedup >= 4.0,
                "{label}: columnar load must be ≥4x faster than JSON, got {speedup:.2}x"
            );
        }
    }
    out.write("BENCH_store.json");
}
