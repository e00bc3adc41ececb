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
//!   result wrapper, and [`run_checkpointed`], the one resume loop of
//!   every checkpointed grid.
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
use aegis_obs::workspace_root_from;
use serde::Serialize;
use std::path::PathBuf;

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

/// The default cache directory: `AEGIS_CACHE_DIR` when set, otherwise
/// `<workspace root>/results/cache` (see
/// [`aegis_obs::workspace_root_from`]). Anchoring on the workspace root —
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
}
