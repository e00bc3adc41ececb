//! # aegis-perf
//!
//! A `perf_event_open`-style monitoring layer over the simulated cores of
//! [`aegis_microarch`]: counter-slot programming with origin filters
//! (pid / exclude-kernel analogues), time multiplexing with
//! enabled/running scaling when more events are requested than the four
//! hardware slots, and interval-sampled trace recording.
//!
//! This is the acquisition path both sides of the Aegis paper use: the
//! malicious host samples four events per 1 ms over 3 s to mount attacks,
//! and the Application Profiler opens groups of `C = 4` events at a time
//! to characterize all of them. One [`TraceRecorder`] serves every
//! [`CounterBank`](aegis_microarch::CounterBank): a scalar
//! [`Core`](aegis_microarch::Core) as one lane, or a
//! [`CoreBatch`](aegis_microarch::CoreBatch) lane group.

mod monitor;
mod trace;

pub use monitor::{PerfError, TraceRecorder, DEFAULT_QUANTUM_NS};
pub use trace::Trace;
