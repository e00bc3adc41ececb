//! # aegis-microarch
//!
//! A micro-architectural CPU and HPC simulator: the hardware substrate the
//! Aegis reproduction runs on in place of the paper's physical Intel Xeon
//! and AMD EPYC testbeds.
//!
//! The simulator models the causal chain that makes HPC side channels
//! possible on real hardware:
//!
//! 1. executed code produces micro-architectural *activity*
//!    ([`ActivityVector`]): µops, loads/stores, cache misses, branches, ...;
//! 2. each of the thousands of HPC *events* ([`EventCatalog`]) observes a
//!    sparse, noisy linear function of that activity;
//! 3. four programmable counters per core ([`CounterBank`]) accumulate
//!    whichever events the (possibly malicious) host programs, subject to
//!    the SEV observability boundary: guest-origin activity only moves
//!    events that are guest visible.
//!
//! A [`Core`] executes both explicit instruction sequences (used by the
//! Event Fuzzer, with cache reset/trigger semantics over the scratch data
//! page) and rate-based activity mixes (used for whole-VM workloads),
//! with configurable external interference reproducing HPC imprecision.
//! It is one lane of the [`CoreBatch`] engine, which runs N independent
//! sessions of the same model as struct-of-arrays lanes; the counters,
//! the per-session state and the step semantics have one definition.
//!
//! ## Example
//!
//! ```
//! use aegis_microarch::{
//!     named, Core, CounterBank, CounterConfig, MicroArch, Origin, OriginFilter,
//! };
//! use aegis_isa::{well_known, WellKnown};
//!
//! let mut core = Core::new(MicroArch::AmdEpyc7252, 1);
//! let event = core.catalog().lookup(named::RETIRED_UOPS).unwrap();
//! core.program(0, CounterConfig { event, filter: OriginFilter::Any })
//!     .unwrap();
//! for _ in 0..100 {
//!     core.execute_instr(&well_known(WellKnown::Add64), Origin::Host).unwrap();
//! }
//! assert!(core.rdpmc(0, 0).unwrap() > 0);
//! ```

mod activity;
mod arch;
mod batch;
mod cache;
mod core;
mod events;
mod pmu;
pub mod rand_util;
mod response;

pub use crate::core::{Core, ExecError, InterferenceConfig};
pub use activity::{ActivityVector, Feature, Origin};
pub use arch::MicroArch;
pub use batch::CoreBatch;
pub use cache::{CacheOutcome, DataPageCache, PAGE_LINES};
pub use events::{named, EventCatalog, EventDesc, EventId, EventKind, KindStats};
pub use pmu::{CounterBank, CounterConfig, OriginFilter, PmuError, COUNTER_SLOTS};
pub use response::{measurement_noise, noise_base_for_seed, read_counter, ResponseMatrix};
