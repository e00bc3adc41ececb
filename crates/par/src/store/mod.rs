//! The columnar, content-addressed artifact store.
//!
//! Three layers, each usable on its own:
//!
//! - [`columnar`]: the `.acs` binary format — header + contiguous
//!   little-endian column pages mirroring in-memory flat layouts, with
//!   per-page checksums so torn writes are detected, and the
//!   [`Columnar`] trait types implement to ride it.
//! - [`manifest`]: the journal of generations and reference counts that
//!   gives the store an explicit [`Manifest::gc`] entry point with a
//!   size budget, and fails closed when corrupt.
//! - [`checkpoint`]: [`Checkpoint`], the generic resumable-partial-
//!   result wrapper, and [`run_checkpointed`], the one resume loop every
//!   chunked grid runs through.
//!
//! [`crate::ArtifactCache`] composes all three behind its `get_col` /
//! `put_col` / `pin` / `gc` methods.

pub mod checkpoint;
pub mod columnar;
pub mod manifest;

pub use checkpoint::{run_checkpointed, Checkpoint, RowLog};
pub use columnar::{
    decode_frame, encode_frame, usize_from_u64, ColumnFrame, ColumnSchema, Columnar, FrameError,
    FrameReader,
};
pub use manifest::{GcReport, Manifest};

use crate::cache::fingerprint;
use serde::Serialize;
use std::path::{Path, PathBuf};

/// A content address: artifact kind plus the fingerprint of everything
/// that determines the artifact's bytes (producer schema + inputs).
///
/// This unifies the ad-hoc `cleanup-*` / `fuzz-ckpt-*` / `model` key
/// strings: every producer states its kind once and hashes its full
/// input tuple, so two artifacts collide exactly when they are the same
/// computation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// Artifact family (one producer, one kind).
    pub kind: &'static str,
    /// Fingerprint of the producer's inputs, salted with the kind.
    pub key: u64,
}

impl ArtifactKey {
    /// Addresses the artifact `kind` produces from `inputs`. The kind is
    /// folded into the hash so identical inputs under different kinds
    /// never alias.
    pub fn of<T: Serialize>(kind: &'static str, inputs: &T) -> Self {
        ArtifactKey {
            kind,
            key: fingerprint(&(kind, inputs)),
        }
    }

    /// Wraps an already-computed fingerprint (for call sites that share
    /// a key between the store and other bookkeeping).
    pub fn raw(kind: &'static str, key: u64) -> Self {
        ArtifactKey { kind, key }
    }
}

/// The topmost ancestor of `start` that contains a `Cargo.toml` — the
/// workspace root when run from anywhere inside the workspace (a crate
/// directory's own `Cargo.toml` is shadowed by the workspace's). Falls
/// back to `start` itself outside any Cargo project.
pub fn workspace_root_from(start: &Path) -> PathBuf {
    let mut root = None;
    for dir in start.ancestors() {
        if dir.join("Cargo.toml").is_file() {
            root = Some(dir);
        }
    }
    root.unwrap_or(start).to_path_buf()
}

/// The default cache directory: `AEGIS_CACHE_DIR` when set, otherwise
/// `<workspace root>/results/cache`. Anchoring on the workspace root —
/// not the bare relative path `results/cache` — keeps per-crate test
/// runs (whose cwd is the crate directory) from sprinkling stray
/// `results/` trees over the source checkout.
pub fn default_cache_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("AEGIS_CACHE_DIR") {
        return PathBuf::from(dir);
    }
    let cwd = std::env::current_dir().unwrap_or_default();
    workspace_root_from(&cwd).join("results").join("cache")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_keys_separate_kinds_and_inputs() {
        let a = ArtifactKey::of("clean-dataset", &(7u64, "wfa"));
        let b = ArtifactKey::of("clean-mea-runs", &(7u64, "wfa"));
        let c = ArtifactKey::of("clean-dataset", &(8u64, "wfa"));
        assert_ne!(a.key, b.key, "same inputs, different kinds");
        assert_ne!(a.key, c.key, "same kind, different inputs");
        assert_eq!(a, ArtifactKey::of("clean-dataset", &(7u64, "wfa")));
    }

    #[test]
    fn workspace_root_is_the_topmost_cargo_ancestor() {
        let base = std::env::temp_dir().join(format!(
            "aegis-par-root-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        let ws = base.join("ws");
        let krate = ws.join("crates").join("leaf");
        std::fs::create_dir_all(&krate).unwrap();
        std::fs::write(ws.join("Cargo.toml"), "[workspace]\n").unwrap();
        std::fs::write(krate.join("Cargo.toml"), "[package]\n").unwrap();

        assert_eq!(workspace_root_from(&krate), ws);
        assert_eq!(workspace_root_from(&ws), ws);
        // Outside any Cargo project the start directory is its own root.
        assert_eq!(workspace_root_from(&base), base);
        let _ = std::fs::remove_dir_all(&base);
    }
}
