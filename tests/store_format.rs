//! The artifact store's external contract: the pinned `.acs` binary
//! layout, GC safety under budget pressure,
//! fail-closed manifest handling, workspace-anchored default paths, and
//! the populate → corrupt → heal → gc → re-read smoke sequence that
//! `scripts/check.sh` replays under `AEGIS_FAULTS=smoke`.

use aegis::attack::Dataset;
use aegis::obs::workspace_root_from;
use aegis::par::store::columnar::{
    decode_frame, encode_frame, COLUMNAR_DESC_LEN, COLUMNAR_HEADER_LEN, COLUMNAR_MAGIC,
};
use aegis::par::store::default_cache_dir;
use aegis::par::{ArtifactCache, ArtifactKey, ColumnFrame, ColumnSchema, Columnar, FrameReader};
use aegis::FaultPlan;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aegis-store-format-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small deterministic dataset (no RNG: the values themselves are the
/// fixture).
fn dataset(n: usize, dim: usize, k: usize) -> Dataset {
    let mut samples = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        samples.push(
            (0..dim)
                .map(|j| (i * dim + j) as f64 * 0.25 - 3.0)
                .collect::<Vec<f64>>(),
        );
        labels.push(i % k);
    }
    Dataset::new(samples, labels, k)
}

/// The golden artifact: schema `golden/acs` v1 holding one f64 column
/// `[1.0, -2.5]` and one u64 column `[7, 0xdeadbeef]`, as produced by
/// `encode_frame`. Every byte is pinned — header, descriptor table,
/// checksums, alignment padding, and the little-endian pages. If this
/// test fails, the on-disk format changed: bump the magic generation
/// (`AEGCOL02`) instead of silently reinterpreting old artifacts.
const GOLDEN_HEX: &str = "414547434f4c30312ef35eb9010000000200000070e4862f0100000002000000\
48000000000000009cd7691ceab4202f02000000020000005800000000000000\
447ecb8382aff60f000000000000f03f00000000000004c00700000000000000\
efbeadde00000000";

fn golden_frame() -> (ColumnSchema, ColumnFrame) {
    let mut frame = ColumnFrame::new();
    frame.push_f64(vec![1.0, -2.5]);
    frame.push_u64(vec![7, 0xdead_beef]);
    (ColumnSchema::new("golden/acs", 1), frame)
}

#[test]
fn golden_acs_layout_is_pinned_byte_for_byte() {
    let (schema, frame) = golden_frame();
    let bytes = encode_frame(&schema, &frame);
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex, GOLDEN_HEX,
        "the .acs byte layout is a compatibility contract"
    );

    // The structural fields the layout doc promises, independently of
    // the full byte pin.
    assert_eq!(&bytes[..8], &COLUMNAR_MAGIC);
    assert_eq!(schema.id(), 0xb95e_f32e, "FNV-1a-32 schema id");
    let desc_end = COLUMNAR_HEADER_LEN + 2 * COLUMNAR_DESC_LEN;
    assert_eq!(desc_end, 72, "two descriptors end 8-byte aligned");
    let page0 = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
    assert_eq!(page0, 72, "first page starts right after the table");
    assert_eq!(bytes.len(), 72 + 2 * 8 + 2 * 8);

    // And the pinned bytes still decode to the original frame.
    assert_eq!(decode_frame(&schema, &bytes).unwrap(), frame);
}

#[test]
fn corrupt_manifest_fails_closed_and_gc_repairs() {
    let dir = temp_dir("manifest-poison");
    let cache = ArtifactCache::with_faults(&dir, FaultPlan::none());
    let ds = dataset(8, 4, 2);
    let key = ArtifactKey::of("poison-dataset", &1u64);
    cache.put_col(&key, &ds).unwrap();
    std::fs::write(cache.manifest().path(), "{not a journal line\n").unwrap();

    // A journal we cannot parse might hide an eviction: every lookup
    // must miss (recompute), never serve possibly-stale bytes.
    let fresh = ArtifactCache::with_faults(&dir, FaultPlan::none());
    assert!(fresh.get_col::<Dataset>(&key).is_none());

    // gc is the only repair: wipe and restart, after which the cache
    // serves fresh puts again.
    let report = fresh.gc(u64::MAX).unwrap();
    assert!(report.reset);
    fresh.put_col(&key, &ds).unwrap();
    assert_eq!(fresh.get_col::<Dataset>(&key), Some(ds));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn default_cache_paths_anchor_on_the_workspace_root() {
    // Regression: per-crate test runs (cwd = the crate directory) used
    // to sprinkle stray `results/` trees over the checkout. The default
    // must anchor on the topmost Cargo.toml ancestor regardless of cwd.
    let cwd = std::env::current_dir().unwrap();
    let root = workspace_root_from(&cwd);
    assert!(root.join("Cargo.toml").is_file());
    assert_eq!(
        workspace_root_from(&root.join("crates").join("par")),
        root,
        "a crate dir resolves to the same workspace root"
    );

    std::env::remove_var("AEGIS_CACHE_DIR");
    assert_eq!(default_cache_dir(), root.join("results").join("cache"));

    std::env::set_var("AEGIS_CACHE_DIR", "/tmp/aegis-cache-override");
    assert_eq!(
        default_cache_dir(),
        PathBuf::from("/tmp/aegis-cache-override")
    );
    std::env::remove_var("AEGIS_CACHE_DIR");
}

/// The check.sh store smoke: populate, corrupt one page in place, watch
/// the store heal through the recompute path, gc, and re-read the exact
/// original bytes. Runs under the ambient fault plan, so the
/// `AEGIS_FAULTS=smoke` rerun exercises the cache torn-write site on
/// the populate step as well.
#[test]
fn store_smoke_populate_corrupt_heal_gc_reread() {
    let dir = temp_dir("smoke");
    let reference = dataset(24, 8, 4);
    let key = ArtifactKey::of("smoke-dataset", &7u64);
    let golden_bytes = encode_frame(&Dataset::schema(), &reference.to_frame());

    // Populate. Under AEGIS_FAULTS=smoke this put may tear at the final
    // path; the recompute path (the clean put below) must heal it.
    let ambient = ArtifactCache::new(&dir);
    ambient.put_col(&key, &reference).unwrap();
    let clean = ArtifactCache::with_faults(&dir, FaultPlan::none());
    if clean.get_col::<Dataset>(&key).is_none() {
        clean.put_col(&key, &reference).unwrap();
    }
    assert_eq!(clean.get_col::<Dataset>(&key), Some(reference.clone()));

    // Corrupt one page: flip a byte inside the last column page. The
    // page checksum turns this into a miss — never stale data, never an
    // error.
    let path = clean.col_path(&key);
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len() - 5;
    bytes[at] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    assert!(
        clean.get_col::<Dataset>(&key).is_none(),
        "a torn page must read as a miss"
    );

    // Heal: recompute-and-store, byte-identical to the first write.
    clean.put_col(&key, &reference).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), golden_bytes);

    // gc under budget pressure: the pinned (referenced) artifact
    // survives a zero budget, the unpinned one is evicted.
    let other_key = ArtifactKey::of("smoke-dataset", &8u64);
    clean.put_col(&other_key, &dataset(6, 4, 2)).unwrap();
    clean.pin(&key);
    clean.gc(0).unwrap();
    assert!(clean.get_col::<Dataset>(&other_key).is_none());

    // Bit-identical re-read after the whole lifecycle.
    assert_eq!(std::fs::read(&path).unwrap(), golden_bytes);
    assert_eq!(clean.get_col::<Dataset>(&key), Some(reference));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Minimal columnar payload for the GC property: content is a function
/// of the key, so survival can be checked bit-exactly.
#[derive(Debug, Clone, PartialEq)]
struct Blob(Vec<f64>);

impl Columnar for Blob {
    fn schema() -> ColumnSchema {
        ColumnSchema::new("suite/test-blob", 1)
    }
    fn encode_columns(&self, frame: &mut ColumnFrame) {
        frame.push_f64(self.0.clone());
    }
    fn decode_columns(reader: &mut FrameReader) -> Result<Self, aegis::par::FrameError> {
        Ok(Blob(reader.f64s()?))
    }
}

static GC_CASE: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gc_under_budget_never_evicts_pinned_artifacts(
        entries in proptest::collection::vec((0u64..24, 1usize..64, 0u8..2), 1..12),
        budget in 0u64..4_096,
    ) {
        let dir = temp_dir(&format!("gc-prop-{}", GC_CASE.fetch_add(1, Ordering::Relaxed)));
        let cache = ArtifactCache::with_faults(&dir, FaultPlan::none());
        let mut expected: BTreeMap<u64, Blob> = BTreeMap::new();
        let mut pinned: BTreeSet<u64> = BTreeSet::new();
        for (key, words, pin) in &entries {
            let blob = Blob(vec![*key as f64 + 0.5; *words]);
            let k = ArtifactKey::raw("prop-blob", *key);
            cache.put_col(&k, &blob).unwrap();
            expected.insert(*key, blob);
            if *pin == 1 {
                cache.pin(&k);
                pinned.insert(*key);
            }
        }
        let pinned_bytes: u64 = pinned
            .iter()
            .filter_map(|k| cache.manifest().entry("prop-blob", *k))
            .map(|e| e.bytes)
            .sum();

        let report = cache.gc(budget).unwrap();

        // Pinned (referenced) artifacts always survive, bit-exactly.
        for key in &pinned {
            let k = ArtifactKey::raw("prop-blob", *key);
            prop_assert!(cache.col_path(&k).exists(), "pinned file survives gc");
            prop_assert_eq!(cache.get_col::<Blob>(&k), Some(expected[key].clone()));
        }
        // The live set fits the budget, up to the incompressible pinned
        // floor.
        prop_assert!(
            report.live_bytes <= budget.max(pinned_bytes),
            "live {} exceeds budget {} (pinned floor {})",
            report.live_bytes,
            budget,
            pinned_bytes
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
