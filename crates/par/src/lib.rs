//! Deterministic work-parallel execution for the Aegis workspace.
//!
//! Fuzzing campaigns, dataset collection, and ε-grid experiment sweeps are
//! all embarrassingly parallel *and* seeded — so this crate provides a
//! worker pool whose results are **bit-identical regardless of worker
//! count**. The contract has three legs:
//!
//! 1. **Per-unit seeds** ([`derive_seed`]): every work unit draws from its
//!    own RNG stream derived from `(base seed, stream tag, unit index)` —
//!    never from a shared RNG whose consumption order would depend on
//!    scheduling.
//! 2. **Pristine per-unit state**: workers read shared state only through
//!    shared references (trace collection records lanes off a `&Host`
//!    snapshot) and mutate only worker-local or per-unit replicas (a
//!    cloned `Core`, a forked `Host` per cell), never state mutated by a
//!    previous unit in a scheduling-dependent order.
//! 3. **Index-ordered results** ([`Executor::map`]): results are returned
//!    in input order no matter which worker finished first.
//!
//! [`ArtifactCache`] memoizes expensive seeded computations (cleanup
//! fuzzing, clean trace datasets) across runs of the CLI and
//! experiment binaries; the [`store`] module
//! is its engine — the columnar `.acs` binary format ([`Columnar`]),
//! the generation/ref-count manifest with `gc`, and generic
//! [`Checkpoint`] resume through [`run_checkpointed`].

mod cache;
mod executor;
mod seed;
pub mod store;

pub use cache::{fingerprint, ArtifactCache};
pub use executor::{available_threads, get_threads, set_threads, Executor, Feed};
pub use seed::{derive_seed, splitmix64};
pub use store::{
    run_checkpointed, ArtifactKey, Checkpoint, ColumnFrame, ColumnSchema, Columnar, FrameError,
    FrameReader, GcReport, Manifest, RowLog,
};
