//! Structured observability for the Aegis workspace.
//!
//! The ROADMAP's north star — a production-scale system — needs the same
//! observability a training/inference stack does: per-phase timing,
//! counters, and machine-readable run logs instead of scattered
//! `println!` in library crates. This crate provides the three layers:
//!
//! 1. **Hierarchical spans** ([`span`]): RAII guards with monotonic
//!    wall-clock timing and optional simulated-time attribution. Spans
//!    nest per thread (`pipeline.offline/fuzz.run/fuzz.record`), and
//!    every close records into the metrics registry.
//! 2. **A metrics registry** ([`Registry`]): named counters, gauges, and
//!    histograms with fixed log2 buckets. Take [`snapshot`]s and diff
//!    them ([`Snapshot::since`]) to attribute work to a code region —
//!    the experiment harness derives its Table III step timings this way
//!    instead of keeping ad-hoc timers.
//! 3. **A JSONL event sink** ([`event`]): append-only run logs under
//!    `<workspace root>/results/obs/run-<id>.jsonl` (see
//!    [`workspace_root_from`]), one JSON object per line, written
//!    whole-line under a lock so concurrent workers never interleave.
//!
//! ## Levels
//!
//! Recording is governed by [`ObsLevel`], resolved as: explicit
//! [`set_level`] override → the `AEGIS_OBS` environment variable
//! (`off|summary|full`) → [`ObsLevel::Summary`].
//!
//! - `off` — nothing is recorded; spans and counters are no-ops.
//! - `summary` — in-memory metrics only (the default): cheap counters
//!   and span histograms for the end-of-run summary table.
//! - `full` — metrics plus the JSONL event sink.
//!
//! ## Determinism contract
//!
//! Observability is strictly *write-only* from the simulation's point of
//! view: nothing in this crate is ever read back into a computation, so
//! simulated results are bit-identical whether the level is `off` or
//! `full` (see `tests/observability.rs` at the workspace root). Wall
//! times naturally vary run to run; simulated quantities do not.

mod metrics;
mod sink;
mod span;
mod summary;

pub use metrics::{global, Histogram, HistogramSnapshot, Registry, Snapshot};
pub use sink::{current_run_log, event, event_with, flush, workspace_root_from};
pub use span::{span, SpanGuard};
pub use summary::render_summary;

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU8, Ordering};

/// How much the observability layer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ObsLevel {
    /// Record nothing; spans and metrics are no-ops.
    Off,
    /// In-memory metrics only (counters, gauges, span histograms).
    #[default]
    Summary,
    /// Metrics plus the JSONL event sink under `results/obs/`.
    Full,
}

impl ObsLevel {
    /// Parses `off|summary|full` (case-insensitive).
    pub fn parse(s: &str) -> Option<ObsLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(ObsLevel::Off),
            "summary" => Some(ObsLevel::Summary),
            "full" => Some(ObsLevel::Full),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Summary => "summary",
            ObsLevel::Full => "full",
        }
    }
}

impl std::fmt::Display for ObsLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ObsLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ObsLevel::parse(s).ok_or_else(|| format!("unknown obs level {s:?} (off|summary|full)"))
    }
}

/// Process-wide level override: 0 = unset, else `ObsLevel as u8 + 1`.
static LEVEL_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Sets (or with `None` clears) the process-wide level override. An
/// explicit override wins over the `AEGIS_OBS` environment variable.
pub fn set_level(level: Option<ObsLevel>) {
    let encoded = match level {
        None => 0,
        Some(ObsLevel::Off) => 1,
        Some(ObsLevel::Summary) => 2,
        Some(ObsLevel::Full) => 3,
    };
    LEVEL_OVERRIDE.store(encoded, Ordering::SeqCst);
}

/// Resolves the effective level: [`set_level`] override, then the
/// `AEGIS_OBS` environment variable, then [`ObsLevel::Summary`].
pub fn level() -> ObsLevel {
    match LEVEL_OVERRIDE.load(Ordering::SeqCst) {
        1 => return ObsLevel::Off,
        2 => return ObsLevel::Summary,
        3 => return ObsLevel::Full,
        _ => {}
    }
    std::env::var("AEGIS_OBS")
        .ok()
        .and_then(|v| ObsLevel::parse(&v))
        .unwrap_or_default()
}

/// Whether anything at all is being recorded.
pub fn enabled() -> bool {
    level() != ObsLevel::Off
}

/// Adds `delta` to the named counter (no-op at `off`).
pub fn counter_add(name: &str, delta: f64) {
    if enabled() {
        global().counter_add(name, delta);
    }
}

/// Sets the named gauge (no-op at `off`).
pub fn gauge_set(name: &str, value: f64) {
    if enabled() {
        global().gauge_set(name, value);
    }
}

/// Records `value` into the named log2-bucketed histogram (no-op at
/// `off`).
pub fn histogram_record(name: &str, value: f64) {
    if enabled() {
        global().histogram_record(name, value);
    }
}

/// Takes a consistent snapshot of every metric.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Clears all metrics and closes the current run log, so the next event
/// opens a fresh one. Meant for tests and long-lived processes that want
/// per-phase run logs; ordinary binaries never need it.
pub fn reset() {
    global().clear();
    sink::close();
    span::clear_thread_stack();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that mutate the process-global level/sink state.
    pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
        LOCK.get_or_init(|| std::sync::Mutex::new(()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn level_parsing_roundtrips() {
        for l in [ObsLevel::Off, ObsLevel::Summary, ObsLevel::Full] {
            assert_eq!(ObsLevel::parse(l.name()), Some(l));
            assert_eq!(l.name().parse::<ObsLevel>().unwrap(), l);
        }
        assert_eq!(ObsLevel::parse("FULL"), Some(ObsLevel::Full));
        assert_eq!(ObsLevel::parse("bogus"), None);
        assert!("bogus".parse::<ObsLevel>().is_err());
    }

    #[test]
    fn explicit_override_wins() {
        let _guard = test_guard();
        set_level(Some(ObsLevel::Off));
        assert_eq!(level(), ObsLevel::Off);
        assert!(!enabled());
        set_level(Some(ObsLevel::Full));
        assert_eq!(level(), ObsLevel::Full);
        set_level(None);
        // Unset: env or the Summary default — either way not Off unless
        // the environment says so.
        if std::env::var("AEGIS_OBS").is_err() {
            assert_eq!(level(), ObsLevel::Summary);
        }
    }
}
