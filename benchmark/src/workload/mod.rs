//! The four workloads, run inside a child process: each sets up, runs
//! one untimed warm-up op, then runs jobs back to back (closed loop, one
//! client) and reports latency samples, op digests and failures.

mod evaluate;
mod fleet;
mod offline;
pub mod repro;

use crate::trace::{Span, Tracer};
use aegis::microarch::MicroArch;
use aegis::par::fingerprint;
use aegis::sev::{Host, SevMode, VmId};
use aegis::workloads::{CryptoApp, DnnZoo, KeystrokeApp, SecretApp, WebsiteCatalog};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `aegis offline` for the four case-study apps.
    OfflinePlan,
    /// `aegis evaluate` + `aegis overhead` rounds.
    EvaluateAttack,
    /// `experiments all --quick`, cold then warm.
    ReproQuick,
    /// Fleet deploy, chaos storm, probe and shutdown.
    FleetStorm,
}

impl Kind {
    /// Every workload, in the order `run` executes them.
    pub const ALL: [Kind; 4] = [
        Kind::OfflinePlan,
        Kind::EvaluateAttack,
        Kind::ReproQuick,
        Kind::FleetStorm,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Kind::OfflinePlan => "offline-plan",
            Kind::EvaluateAttack => "evaluate-attack",
            Kind::ReproQuick => "repro-quick",
            Kind::FleetStorm => "fleet-storm",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn make(self, seed: u64) -> Box<dyn Workload> {
        let seed = library_seed(seed);
        match self {
            Kind::OfflinePlan => Box::new(offline::OfflinePlan::new(seed)),
            Kind::EvaluateAttack => Box::new(evaluate::EvaluateAttack::new(seed)),
            Kind::ReproQuick => Box::new(repro::Repro),
            Kind::FleetStorm => Box::new(fleet::FleetStorm::new(seed)),
        }
    }
}

/// Library seeds the workloads draw from: `1..=LIBRARY_SEEDS` (plus two
/// for the offline plan seeds). With the `aegis offline` settings the
/// pipeline finds a covering gadget for all four apps at every seed up
/// to 251; at 252 the dnn plan is empty and `GadgetStack::calibrate`
/// panics. Workloads must be inputs on which no op fails.
const LIBRARY_SEEDS: u64 = 240;

/// Maps a benchmark seed onto the library seeds: `1..=240` map to
/// themselves, larger ones wrap.
fn library_seed(seed: u64) -> u64 {
    seed.wrapping_sub(1) % LIBRARY_SEEDS + 1
}

/// One checked unit of work: its key names the inputs absolutely (so
/// equal keys must give equal digests in any run), its digest
/// fingerprints the output, and an error marks it failed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpRecord {
    /// Input description, e.g. `plan/keystroke/p7`.
    pub key: String,
    /// Output fingerprint (hex), when the op succeeded.
    pub digest: Option<String>,
    /// Why the op failed.
    pub error: Option<String>,
}

impl OpRecord {
    /// A record of `Ok(digest)` or `Err(reason)`.
    pub fn new(key: String, outcome: Result<String, String>) -> OpRecord {
        let (digest, error) = match outcome {
            Ok(d) => (Some(d), None),
            Err(e) => (None, Some(e)),
        };
        OpRecord { key, digest, error }
    }
}

/// What a child process hands back to the parent.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChildReport {
    /// Process start to the end of setup (incl. the warm-up op).
    pub setup_s: f64,
    /// Latency of each timed job (or fleet step), seconds.
    pub samples_s: Vec<f64>,
    /// Wall time of the timed loop.
    pub measured_s: f64,
    /// Every checked op, warm-up included.
    pub ops: Vec<OpRecord>,
    /// Sums the workload counts itself (gadgets tested, crashes, ...).
    pub layer: BTreeMap<String, f64>,
    /// Peak resident set size (`VmHWM`), MiB.
    pub peak_rss_mb: f64,
    /// The benchmark's spans (traced children only).
    pub spans: Vec<Span>,
    /// Selected `aegis-obs` totals over the timed loop (traced only).
    pub obs: BTreeMap<String, f64>,
}

/// Per-child state shared with the workload code.
struct Cx {
    /// The child's private scratch directory (its cwd).
    work_dir: PathBuf,
    /// Span recorder (disabled in untraced children).
    trace: Tracer,
    ops: Vec<OpRecord>,
    layer: BTreeMap<String, f64>,
}

impl Cx {
    /// Records a checked op: `Ok(digest)` or `Err(reason)`.
    fn op(&mut self, key: String, outcome: Result<String, String>) {
        self.ops.push(OpRecord::new(key, outcome));
    }

    /// Adds `v` to the per-layer sum `name`.
    fn add(&mut self, name: &str, v: f64) {
        *self.layer.entry(name.to_string()).or_insert(0.0) += v;
    }
}

/// A workload's life cycle inside one child.
trait Workload {
    /// Builds what every job needs (catalogs, plans) and runs one
    /// untimed warm-up op.
    fn setup(&mut self, cx: &mut Cx) -> Result<(), String>;
    /// Runs job `k` and returns its latency samples in seconds.
    fn job(&mut self, k: usize, cx: &mut Cx) -> Vec<f64>;
    /// Untimed work after the loop.
    fn finish(&mut self, _cx: &mut Cx) {}
}

/// How long (or how much) a child measures.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Set up only.
    SetupOnly,
    /// Start jobs while the loop is projected to end within this time
    /// (at least one job).
    Time(Duration),
    /// Exactly this many jobs.
    Jobs(usize),
}

/// Runs `kind` in this process and returns its report. `started` is the
/// instant `main` began, so `setup_s` includes process start-up.
pub fn run_child(
    kind: Kind,
    seed: u64,
    budget: Budget,
    traced: bool,
    started: Instant,
) -> ChildReport {
    let mut cx = Cx {
        work_dir: std::env::current_dir().expect("the child has a cwd"),
        trace: Tracer::new(traced),
        ops: Vec::new(),
        layer: BTreeMap::new(),
    };
    let mut w = kind.make(seed);
    let mut report = ChildReport::default();

    let span = cx.trace.begin("setup");
    let setup = guarded(|| w.setup(&mut cx)).and_then(|r| r);
    match &setup {
        Ok(()) => cx.trace.end(span),
        Err(_) => cx.trace.close_all(),
    }
    report.setup_s = started.elapsed().as_secs_f64();
    if let Err(e) = setup {
        cx.op("setup".into(), Err(e));
    } else if !matches!(budget, Budget::SetupOnly) {
        // Per-layer sums and obs totals cover the timed loop only.
        cx.layer.clear();
        let obs_base = aegis::obs::snapshot();
        let loop_start = Instant::now();
        for k in 0.. {
            match guarded(|| w.job(k, &mut cx)) {
                Ok(samples) => report.samples_s.extend(samples),
                Err(e) => {
                    cx.trace.close_all();
                    cx.op(format!("job{k}"), Err(e));
                }
            }
            let done = k + 1;
            let elapsed = loop_start.elapsed();
            let stop = match budget {
                Budget::Jobs(n) => done >= n,
                Budget::Time(limit) => elapsed + elapsed / done as u32 > limit,
                Budget::SetupOnly => true,
            };
            if stop {
                break;
            }
        }
        report.measured_s = loop_start.elapsed().as_secs_f64();
        if let Err(e) = guarded(|| w.finish(&mut cx)) {
            cx.trace.close_all();
            cx.op("finish".into(), Err(e));
        }
        if traced {
            report.obs = obs_totals(&aegis::obs::snapshot().since(&obs_base));
        }
    }
    report.peak_rss_mb = peak_rss_mb();
    report.ops = cx.ops;
    report.layer = cx.layer;
    report.spans = cx.trace.into_spans();
    report
}

/// Runs `f`, turning a panic into an error so one failed op never loses
/// the rest of the run.
fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        format!("panicked: {msg}")
    })
}

/// The `aegis-obs` totals the traced run reports, read from the
/// library's existing registry (no spans are added to the library).
pub const OBS_SPANS: [&str; 7] = [
    "collect.dataset",
    "collect.mea",
    "attack.train",
    "sweep.cell",
    "profile.rank",
    "fuzz.run",
    "fleet.storm",
];

/// Extracts the reported values from an `aegis-obs` snapshot delta.
fn obs_totals(snap: &aegis::obs::Snapshot) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for name in OBS_SPANS {
        out.insert(name.to_string(), snap.span_seconds(name).unwrap_or(0.0));
    }
    for name in [
        "obfuscator.intervals",
        "par.units",
        "cache.hit",
        "cache.miss",
        "cache.store",
    ] {
        out.insert(name.to_string(), snap.counter(name));
    }
    let idle = snap.histogram("par.worker.idle_ns").map_or(0.0, |h| h.sum);
    out.insert("par.worker.idle_s".to_string(), idle / 1e9);
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The simulated processor every workload runs on (the paper's SEV
/// testbed model).
const ARCH: MicroArch = MicroArch::AmdEpyc7252;

/// A fresh two-core template host with one SEV-SNP VM, as the `aegis`
/// CLI builds it.
fn template(seed: u64) -> Result<(Host, VmId), String> {
    let mut host = Host::new(ARCH, 2, seed);
    let vm = host
        .launch_vm(1, SevMode::SevSnp)
        .map_err(|e| e.to_string())?;
    Ok((host, vm))
}

/// The case-study apps by CLI name, built exactly as `aegis --app`.
fn app(name: &str, seed: u64) -> Box<dyn SecretApp> {
    match name {
        "website" => Box::new(WebsiteCatalog::new(seed)),
        "keystroke" => Box::new(KeystrokeApp::with_window(400_000_000)),
        "dnn" => Box::new(DnnZoo::new(seed)),
        "crypto" => Box::new(CryptoApp::with_window(4, 400_000_000)),
        other => panic!("unknown app {other:?}"),
    }
}

/// Hex content fingerprint of any serializable value.
pub fn digest<T: Serialize>(value: &T) -> String {
    format!("{:016x}", fingerprint(value))
}

/// Bytes under `dir` (0 when missing).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.file_type() {
                Ok(t) if t.is_dir() => dir_bytes(&e.path()),
                _ => e.metadata().map_or(0, |m| m.len()),
            })
            .sum()
    })
}

/// Seconds since `t`.
fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
