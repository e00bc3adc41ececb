//! A keyed on-disk artifact cache for expensive seeded computations.
//!
//! Cleanup fuzzing and clean-trace dataset collection are pure functions
//! of `(configuration, seed)` — the whole point of the determinism
//! contract — which makes their outputs safely memoizable. Bulk numeric
//! artifacts (datasets, models, traces, checkpoints) live in the
//! columnar `.acs` binary format (see [`crate::store::columnar`]) named
//! `<kind>-<key>.acs`; small metadata records (plans, ledgers, reports)
//! stay as JSON files named `<kind>-<key>.json`. Both ride the
//! generation/ref-count [`Manifest`] journal, which gives the cache an
//! explicit [`ArtifactCache::gc`] entry point and fails closed when
//! corrupt.

use crate::store::columnar::{decode_frame, encode_frame, Columnar};
use crate::store::manifest::{GcReport, Manifest};
use crate::store::ArtifactKey;
use aegis_faults::{self as faults, FaultPlan, FaultStream};
use aegis_obs as obs;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

/// Fingerprints any serializable configuration as a cache key: FNV-1a
/// over its compact JSON encoding. Stable across processes (no
/// `DefaultHasher` randomization) and sensitive to every field.
pub fn fingerprint<T: Serialize>(value: &T) -> u64 {
    let json = serde_json::to_string(value).expect("serialization is infallible here");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in json.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A directory of memoized artifacts: columnar `.acs` files for bulk
/// numeric data, JSON for small metadata, journaled by a [`Manifest`].
#[derive(Clone, Debug)]
pub struct ArtifactCache {
    dir: PathBuf,
    enabled: bool,
    faults: FaultPlan,
    manifest: Manifest,
}

impl ArtifactCache {
    /// A cache rooted at `dir` (created lazily on first `put`), under the
    /// ambient [`FaultPlan`].
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::with_faults(dir, faults::plan())
    }

    /// A cache rooted at `dir` with an explicit fault plan.
    pub fn with_faults(dir: impl Into<PathBuf>, plan: FaultPlan) -> Self {
        let dir = dir.into();
        ArtifactCache {
            manifest: Manifest::new(&dir),
            dir,
            enabled: std::env::var_os("AEGIS_NO_CACHE").is_none(),
            faults: plan,
        }
    }

    /// The conventional workspace cache location: `AEGIS_CACHE_DIR` when
    /// set, else `<workspace root>/results/cache` regardless of cwd (see
    /// [`crate::store::default_cache_dir`]).
    pub fn default_location() -> Self {
        ArtifactCache::new(crate::store::default_cache_dir())
    }

    /// A cache that never hits and never writes (for `--no-cache`).
    pub fn disabled() -> Self {
        ArtifactCache {
            dir: PathBuf::new(),
            enabled: false,
            faults: FaultPlan::none(),
            manifest: Manifest::new(PathBuf::new()),
        }
    }

    /// The directory this cache stores artifacts in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The manifest journaling this cache's artifacts.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The file that would hold the JSON metadata record at `key`.
    pub fn json_path(&self, key: &ArtifactKey) -> PathBuf {
        self.dir.join(format!("{}-{:016x}.json", key.kind, key.key))
    }

    /// The file that would hold the columnar artifact at `key`.
    pub fn col_path(&self, key: &ArtifactKey) -> PathBuf {
        self.dir.join(format!("{}-{:016x}.acs", key.kind, key.key))
    }

    /// Whether this cache can serve hits (enabled and journal healthy —
    /// a corrupt manifest fails closed: everything misses, callers
    /// recompute, never stale bytes).
    fn servable(&self) -> bool {
        self.enabled && !self.manifest.is_poisoned()
    }

    /// Loads a JSON metadata record, or `None` on miss (absent,
    /// unreadable, or no longer parseable — a stale-format file is just a
    /// miss, surfaced to observability as a `cache.corrupt` event rather
    /// than an error).
    pub fn get_json<T: Deserialize>(&self, key: &ArtifactKey) -> Option<T> {
        if !self.servable() {
            return None;
        }
        let path = self.json_path(key);
        let Ok(text) = std::fs::read_to_string(&path) else {
            self.note("cache.miss", key, &path);
            return None;
        };
        match serde_json::from_str(&text) {
            Ok(value) => {
                self.note("cache.hit", key, &path);
                Some(value)
            }
            Err(_) => {
                self.note("cache.corrupt", key, &path);
                None
            }
        }
    }

    /// Counts a cache outcome and, at the `full` level, logs it with
    /// enough context to find the artifact on disk.
    fn note(&self, outcome: &str, key: &ArtifactKey, path: &Path) {
        if !obs::enabled() {
            return;
        }
        obs::counter_add(outcome, 1.0);
        obs::event(
            outcome,
            &[
                ("cache_kind", key.kind),
                ("key", &format!("{:016x}", key.key)),
                ("path", &path.display().to_string()),
            ],
        );
    }

    /// Stores a JSON metadata record, creating the cache directory if
    /// needed. The write is atomic (temp file + rename) so a crashed run
    /// can never leave a half-written artifact that later reads as a hit.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] when the artifact cannot be written.
    pub fn put_json<T: Serialize>(&self, key: &ArtifactKey, value: &T) -> io::Result<PathBuf> {
        if !self.enabled {
            return Ok(PathBuf::new());
        }
        std::fs::create_dir_all(&self.dir)?;
        let path = self.json_path(key);
        let tmp = self.dir.join(format!(
            ".{}-{:016x}.{}.tmp",
            key.kind,
            key.key,
            std::process::id()
        ));
        let json = serde_json::to_string_pretty(value)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if self.faults.cache_torn > 0.0 {
            // Simulated legacy writer crashing mid-write: half the bytes
            // land at the *final* path, bypassing the tmp+rename
            // discipline. The torn artifact must later read as a
            // `cache.corrupt` miss, never as a hit. Keyed per artifact so
            // the outcome is identical at any worker count.
            let mut s = FaultStream::new(&self.faults, faults::site::CACHE, key.key);
            if s.chance(self.faults.cache_torn) {
                std::fs::write(&path, &json.as_bytes()[..json.len() / 2])?;
                faults::report("cache", "torn_write", &[("key", key.key)]);
                return Ok(path);
            }
        }
        std::fs::write(&tmp, &json)?;
        std::fs::rename(&tmp, &path)?;
        self.record(key, &path, json.len() as u64);
        obs::counter_add("cache.store", 1.0);
        Ok(path)
    }

    /// Journals a landed artifact. Journal failures are non-fatal: the
    /// artifact still serves, it just looks like an orphan to `gc`.
    fn record(&self, key: &ArtifactKey, path: &Path, bytes: u64) {
        if let Some(file) = path.file_name().and_then(|f| f.to_str()) {
            let _ = self.manifest.record_put(key.kind, key.key, file, bytes);
        }
    }

    /// Loads a columnar artifact, or `None` on miss. Like
    /// [`ArtifactCache::get_json`], every failure mode — absent file, torn
    /// page (inside a column or truncating the file), schema drift,
    /// poisoned manifest — is a miss the recompute path heals, never an
    /// error and never stale data.
    pub fn get_col<T: Columnar>(&self, key: &ArtifactKey) -> Option<T> {
        if !self.servable() {
            return None;
        }
        let path = self.col_path(key);
        let Ok(bytes) = std::fs::read(&path) else {
            self.note("cache.miss", key, &path);
            return None;
        };
        match decode_frame(&T::schema(), &bytes).and_then(T::from_frame) {
            Ok(value) => {
                self.note("cache.hit", key, &path);
                Some(value)
            }
            Err(_) => {
                self.note("cache.corrupt", key, &path);
                None
            }
        }
    }

    /// Stores a columnar artifact atomically (temp + rename) and journals
    /// it. Under an active fault plan the torn-write site can instead
    /// land half the encoded bytes at the final path — the cut falls
    /// inside a column page, whose checksum makes the next `get_col` a
    /// `cache.corrupt` miss (and `gc` removes the unjournaled file as an
    /// orphan).
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] when the artifact cannot be written.
    pub fn put_col<T: Columnar>(&self, key: &ArtifactKey, value: &T) -> io::Result<PathBuf> {
        if !self.enabled {
            return Ok(PathBuf::new());
        }
        std::fs::create_dir_all(&self.dir)?;
        let path = self.col_path(key);
        let bytes = encode_frame(&T::schema(), &value.to_frame());
        if self.faults.cache_torn > 0.0 {
            let mut s = FaultStream::new(&self.faults, faults::site::CACHE, key.key);
            if s.chance(self.faults.cache_torn) {
                std::fs::write(&path, &bytes[..bytes.len() / 2])?;
                faults::report("cache", "torn_write", &[("key", key.key)]);
                return Ok(path);
            }
        }
        let tmp = self.dir.join(format!(
            ".{}-{:016x}.{}.tmp",
            key.kind,
            key.key,
            std::process::id()
        ));
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, &path)?;
        self.record(key, &path, bytes.len() as u64);
        obs::counter_add("cache.store", 1.0);
        Ok(path)
    }

    /// Pins an artifact: `gc` will not evict it while the pin is held.
    pub fn pin(&self, key: &ArtifactKey) {
        if self.enabled {
            let _ = self.manifest.pin(key.kind, key.key);
        }
    }

    /// Releases a pin taken by [`ArtifactCache::pin`].
    pub fn unpin(&self, key: &ArtifactKey) {
        if self.enabled {
            let _ = self.manifest.unpin(key.kind, key.key);
        }
    }

    /// Collects garbage: evicts unpinned artifacts oldest-first until the
    /// journaled live set fits `budget_bytes`, removes unjournaled files,
    /// compacts the journal, and — when the journal was poisoned — wipes
    /// everything and starts it fresh. See [`Manifest::gc`].
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] when files or the journal cannot be
    /// rewritten.
    pub fn gc(&self, budget_bytes: u64) -> io::Result<GcReport> {
        if !self.enabled {
            return Ok(GcReport::default());
        }
        let report = self.manifest.gc(budget_bytes)?;
        if obs::enabled() {
            obs::counter_add("cache.gc.evicted", report.evicted as f64);
            obs::counter_add("cache.gc.orphans", report.orphans_removed as f64);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("aegis-par-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_then_get_roundtrips() {
        // A roundtrip is defined without torn writes (those have their
        // own tests), so this cache ignores the ambient plan.
        let cache = ArtifactCache::with_faults(temp_dir("roundtrip"), FaultPlan::none());
        let value = vec![(1u64, 0.5f64), (2, 0.25)];
        let key = ArtifactKey::raw("demo", 7);
        assert!(cache.get_json::<Vec<(u64, f64)>>(&key).is_none());
        cache.put_json(&key, &value).unwrap();
        assert_eq!(cache.get_json::<Vec<(u64, f64)>>(&key), Some(value));
        // A different key or kind still misses.
        assert!(cache
            .get_json::<Vec<(u64, f64)>>(&ArtifactKey::raw("demo", 8))
            .is_none());
        assert!(cache
            .get_json::<Vec<(u64, f64)>>(&ArtifactKey::raw("other", 7))
            .is_none());
    }

    #[test]
    fn corrupt_artifacts_read_as_misses() {
        let cache = ArtifactCache::new(temp_dir("corrupt"));
        let key = ArtifactKey::raw("demo", 1);
        cache.put_json(&key, &vec![1u64]).unwrap();
        std::fs::write(cache.json_path(&key), "{not json").unwrap();
        assert!(cache.get_json::<Vec<u64>>(&key).is_none());
    }

    #[test]
    fn torn_put_reads_as_miss_and_recompute_heals() {
        let plan = FaultPlan {
            seed: 11,
            cache_torn: 1.0,
            ..FaultPlan::none()
        };
        let dir = temp_dir("torn");
        let cache = ArtifactCache::with_faults(dir.clone(), plan);
        let value = vec![1u64, 2, 3];
        let key = ArtifactKey::raw("demo", 5);
        let path = cache.put_json(&key, &value).unwrap();
        assert!(path.exists(), "torn write still lands at the final path");
        assert!(
            cache.get_json::<Vec<u64>>(&key).is_none(),
            "a torn artifact must never read as a hit"
        );
        // The recompute-and-store path (now fault-free) heals the entry.
        let healed = ArtifactCache::with_faults(dir, FaultPlan::none());
        healed.put_json(&key, &value).unwrap();
        assert_eq!(healed.get_json::<Vec<u64>>(&key), Some(value));
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        let a = fingerprint(&(42u64, "laplace", 0.5f64));
        assert_eq!(a, fingerprint(&(42u64, "laplace", 0.5f64)));
        assert_ne!(a, fingerprint(&(43u64, "laplace", 0.5f64)));
        assert_ne!(a, fingerprint(&(42u64, "laplace", 0.6f64)));
    }

    #[test]
    fn disabled_cache_never_hits() {
        let cache = ArtifactCache::disabled();
        let key = ArtifactKey::raw("demo", 1);
        cache.put_json(&key, &vec![1u64]).unwrap();
        assert!(cache.get_json::<Vec<u64>>(&key).is_none());
        cache.put_col(&key, &Blob { data: vec![1.0] }).unwrap();
        assert!(cache.get_col::<Blob>(&key).is_none());
    }

    use crate::store::columnar::{ColumnFrame, ColumnSchema, FrameReader};

    /// Minimal columnar payload, for exercising the cache paths without
    /// pulling in real datasets.
    #[derive(Debug, Clone, PartialEq)]
    struct Blob {
        data: Vec<f64>,
    }

    impl Columnar for Blob {
        fn schema() -> ColumnSchema {
            ColumnSchema::new("par/test-blob", 1)
        }
        fn encode_columns(&self, frame: &mut ColumnFrame) {
            frame.push_f64(self.data.clone());
        }
        fn decode_columns(reader: &mut FrameReader) -> Result<Self, crate::store::FrameError> {
            Ok(Blob {
                data: reader.f64s()?,
            })
        }
    }

    #[test]
    fn columnar_put_get_roundtrips_and_journals() {
        let cache = ArtifactCache::new(temp_dir("col-roundtrip"));
        let key = ArtifactKey::raw("blob", 9);
        let value = Blob {
            data: vec![1.5, -0.25, f64::NAN],
        };
        assert!(cache.get_col::<Blob>(&key).is_none());
        cache.put_col(&key, &value).unwrap();
        let back = cache.get_col::<Blob>(&key).unwrap();
        assert_eq!(
            back.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            value.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        let entry = cache.manifest().entry("blob", 9).unwrap();
        assert!(entry.bytes > 0, "put journaled with its size");
    }

    #[test]
    fn torn_columnar_put_reads_as_miss_and_recompute_heals() {
        let plan = FaultPlan {
            seed: 11,
            cache_torn: 1.0,
            ..FaultPlan::none()
        };
        let dir = temp_dir("col-torn");
        let cache = ArtifactCache::with_faults(dir.clone(), plan);
        let key = ArtifactKey::raw("blob", 5);
        let value = Blob {
            data: vec![0.5; 64],
        };
        let path = cache.put_col(&key, &value).unwrap();
        assert!(path.exists(), "torn write lands at the final path");
        assert!(
            cache.get_col::<Blob>(&key).is_none(),
            "a torn columnar artifact must never read as a hit"
        );
        assert!(
            cache.manifest().entry("blob", 5).is_none(),
            "a torn write never reaches the journal"
        );
        let healed = ArtifactCache::with_faults(dir, FaultPlan::none());
        healed.put_col(&key, &value).unwrap();
        assert_eq!(healed.get_col::<Blob>(&key), Some(value));
    }

    #[test]
    fn poisoned_manifest_fails_closed_for_both_formats() {
        // Fault-free, so a miss below can only come from the poisoned
        // manifest, never from a torn write.
        let dir = temp_dir("col-poison");
        let cache = ArtifactCache::with_faults(dir.clone(), FaultPlan::none());
        let key = ArtifactKey::raw("blob", 7);
        cache.put_col(&key, &Blob { data: vec![1.0] }).unwrap();
        let meta = ArtifactKey::raw("meta", 7);
        cache.put_json(&meta, &vec![1u64]).unwrap();
        std::fs::write(cache.manifest().path(), "garbage\n").unwrap();

        let fresh = ArtifactCache::with_faults(dir, FaultPlan::none());
        assert!(fresh.get_col::<Blob>(&key).is_none());
        assert!(fresh.get_json::<Vec<u64>>(&meta).is_none());
        // gc repairs by wiping; afterwards the cache serves fresh puts.
        let report = fresh.gc(u64::MAX).unwrap();
        assert!(report.reset);
        fresh.put_col(&key, &Blob { data: vec![2.0] }).unwrap();
        assert_eq!(fresh.get_col::<Blob>(&key), Some(Blob { data: vec![2.0] }));
    }
}
