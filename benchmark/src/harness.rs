//! The parent side of a run: every measured process is a child started
//! in a fresh directory (the library writes `results/` relative to its
//! cwd) with a fresh artifact cache and a pinned environment, one child
//! at a time. The parent checks every op, turns the children's reports
//! into metrics, and prints them.

use crate::metrics::{self, TracedInputs, END_TO_END};
use crate::stats::{median, quartiles, tail_percentile};
use crate::workload::{digest, dir_bytes, ChildReport, Kind, OpRecord};
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Set-up is measured this many times per run; the median is reported.
const SETUP_SAMPLES: usize = 3;
/// Every child must have ended this long after the run started.
const RUN_DEADLINE: Duration = Duration::from_secs(170);
/// Share of each op's wall time the layer spans must cover.
const MIN_COVERAGE_PCT: f64 = 90.0;

/// One invocation of `run` for one workload.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Everything a run measured and checked.
pub struct RunOutcome {
    pub args: RunArgs,
    pub attempted: usize,
    pub failures: Vec<String>,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, String)>,
    /// Op latencies of the untraced measurement, seconds.
    pub op_samples_s: Vec<f64>,
    /// Set-up times, seconds.
    pub setup_samples_s: Vec<f64>,
}

impl RunOutcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Value {
        let mut metrics = Map::new();
        for (name, value, unit) in &self.metrics {
            let mut m = Map::new();
            m.insert("value".into(), Value::from(*value));
            m.insert("unit".into(), Value::from(unit.as_str()));
            metrics.insert(name.clone(), Value::Object(m));
        }
        let mut out = Map::new();
        out.insert("correct".into(), Value::from(self.correct()));
        out.insert("attempted".into(), Value::from(self.attempted.max(1)));
        out.insert("failed".into(), Value::from(self.failures.len()));
        out.insert("metrics".into(), Value::Object(metrics));
        Value::Object(out)
    }

    /// A human-readable table of the metrics, with quartiles and sample
    /// counts where a metric summarizes samples.
    pub fn table(&self) -> String {
        let a = &self.args;
        let mut out = format!(
            "{} seed {} trace {} threads {}: {} ops checked, {} failed\n",
            a.kind.name(),
            a.seed,
            u8::from(a.trace),
            threads(),
            self.attempted,
            self.failures.len()
        );
        out += &format!(
            "  {:<34} {:>12} {:>12} {:>12} {:>12} {:>6}  unit\n",
            "metric", "value", "q1", "median", "q3", "n"
        );
        for (name, value, unit) in &self.metrics {
            let samples: Option<(&[f64], f64)> = match name.as_str() {
                "op_p50_ms" => Some((&self.op_samples_s, 1e3)),
                "setup_s" => Some((&self.setup_samples_s, 1.0)),
                _ => None,
            };
            match samples.filter(|(s, _)| !s.is_empty()) {
                Some((s, scale)) => {
                    let (q1, q2, q3) = quartiles(s);
                    out += &format!(
                        "  {name:<34} {value:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>6}  {unit}\n",
                        q1 * scale,
                        q2 * scale,
                        q3 * scale,
                        s.len()
                    );
                }
                None => out += &format!("  {name:<34} {value:>12.4} {:>51}  {unit}\n", ""),
            }
        }
        if let Some(p) = tail_percentile(self.op_samples_s.len()) {
            out += &format!(
                "  op latency p{}: {:.4} ms over {} samples\n",
                p * 100.0,
                crate::stats::quantile(&self.op_samples_s, p) * 1e3,
                self.op_samples_s.len()
            );
        }
        for f in &self.failures {
            out += &format!("  FAILED {f}\n");
        }
        out
    }
}

/// The benchmark's scratch root, `benchmark/work/` in the checkout.
pub fn work_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// Worker threads each child runs with: two, or fewer on a smaller
/// machine, so one process at a time never oversubscribes the CPUs.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Runs one workload once and returns what it measured.
pub fn run(args: RunArgs) -> RunOutcome {
    let mut r = Runner::new(args, "run", RUN_DEADLINE);
    let mut out = RunOutcome {
        args,
        attempted: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        op_samples_s: Vec::new(),
        setup_samples_s: Vec::new(),
    };
    if args.kind == Kind::ReproQuick {
        run_repro(&mut r, &mut out);
    } else {
        run_in_process(&mut r, &mut out);
    }
    let _ = fs::remove_dir_all(&r.dir);
    out.attempted = r.ops.len() + r.failures.len();
    out.failures = r.failures;
    out.failures.extend(judge(&r.ops, &load_golden()));
    out
}

/// Offline, evaluate and fleet: set-up probes plus one timed child
/// (untraced), or an untraced and a traced timed child (traced run).
fn run_in_process(r: &mut Runner, out: &mut RunOutcome) {
    let seconds = r.args.seconds.to_string();
    let timed = ["--role", "measure", "--seconds", seconds.as_str()];
    if r.args.trace {
        let untraced = r.child(&timed, false, None);
        let traced = r.child(&timed, true, None);
        if let (Some(u), Some(t)) = (untraced, traced) {
            if u.report.samples_s.is_empty() || t.report.samples_s.is_empty() {
                r.failures.push("a timed child measured no ops".into());
                return;
            }
            let untraced_p50_s = median(&u.report.samples_s);
            let traced_p50_s = median(&t.report.samples_s);
            out.op_samples_s = u.report.samples_s;
            set_per_layer(
                r,
                out,
                &TracedInputs {
                    traced: &[t.report],
                    untraced_p50_s,
                    traced_p50_s,
                    cache_bytes: 0,
                    repro_walls: None,
                    threads: threads(),
                },
            );
        }
        return;
    }
    for _ in 1..SETUP_SAMPLES {
        if let Some(c) = r.child(&["--role", "setup"], false, None) {
            out.setup_samples_s.push(c.report.setup_s);
        }
    }
    let Some(m) = r.child(&timed, false, None) else {
        return;
    };
    out.setup_samples_s.push(m.report.setup_s);
    if m.report.samples_s.is_empty() {
        r.failures.push("the timed child measured no ops".into());
        return;
    }
    let ops_per_s = m.report.samples_s.len() as f64 / m.report.measured_s;
    out.op_samples_s = m.report.samples_s;
    set_end_to_end(out, ops_per_s, m.report.peak_rss_mb);
}

/// Repro: each op is a cold pass then a warm pass, each its own child
/// sharing one artifact cache. Both passes' set-ups are set-up samples;
/// a set-up-only child adds the third.
fn run_repro(r: &mut Runner, out: &mut RunOutcome) {
    if r.args.trace {
        let untraced = repro_job(r, 0, false);
        let traced = repro_job(r, 1, true);
        if let (Some(u), Some(mut t)) = (untraced, traced) {
            for s in &mut t.warm.spans {
                if s.name.starts_with("repro.") {
                    s.name.push_str("_warm");
                }
            }
            out.op_samples_s = vec![u.cold_s + u.warm_s];
            set_per_layer(
                r,
                out,
                &TracedInputs {
                    traced: &[t.cold, t.warm],
                    untraced_p50_s: u.cold_s + u.warm_s,
                    traced_p50_s: t.cold_s + t.warm_s,
                    cache_bytes: t.cache_bytes,
                    repro_walls: Some((u.cold_s, u.warm_s)),
                    threads: threads(),
                },
            );
        }
        return;
    }
    for _ in 2..SETUP_SAMPLES {
        if let Some(c) = r.child(&["--role", "setup"], false, None) {
            out.setup_samples_s.push(c.report.setup_s);
        }
    }
    let budget = Duration::from_secs(r.args.seconds);
    let start = Instant::now();
    let mut peak: f64 = 0.0;
    for k in 0.. {
        let Some(job) = repro_job(r, k, false) else {
            break;
        };
        out.op_samples_s.push(job.cold_s + job.warm_s);
        out.setup_samples_s.push(job.cold.setup_s);
        out.setup_samples_s.push(job.warm.setup_s);
        peak = peak.max(job.cold.peak_rss_mb).max(job.warm.peak_rss_mb);
        let elapsed = start.elapsed();
        if elapsed + elapsed / (k + 1) as u32 > budget {
            break;
        }
    }
    let measured_s = start.elapsed().as_secs_f64();
    if out.op_samples_s.is_empty() {
        r.failures.push("no reproduction op completed".into());
        return;
    }
    let ops_per_s = out.op_samples_s.len() as f64 / measured_s;
    set_end_to_end(out, ops_per_s, peak);
}

struct ReproJob {
    cold_s: f64,
    warm_s: f64,
    cold: ChildReport,
    warm: ChildReport,
    cache_bytes: u64,
}

/// One reproduction op: cold pass, warm pass, and the check that both
/// wrote byte-identical `results/*.json`.
fn repro_job(r: &mut Runner, k: usize, traced: bool) -> Option<ReproJob> {
    let pass = ["--role", "measure", "--jobs", "1"];
    let cache = r.dir.join(format!("cache-{k}"));
    let cold = r.child(&pass, traced, Some(&cache))?;
    let cache_bytes = dir_bytes(&cache);
    let warm = r.child(&pass, traced, Some(&cache))?;
    let files = |dir: &Path| -> BTreeMap<String, Vec<u8>> {
        fs::read_dir(dir.join("results"))
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .map(|e| {
                let bytes = fs::read(e.path()).unwrap_or_default();
                (e.file_name().to_string_lossy().into_owned(), bytes)
            })
            .collect()
    };
    let (cold_files, warm_files) = (files(&cold.cwd), files(&warm.cwd));
    if cold_files.is_empty() {
        r.failures
            .push("the cold pass wrote no results/*.json".into());
    }
    let names: std::collections::BTreeSet<&String> =
        cold_files.keys().chain(warm_files.keys()).collect();
    for name in names {
        let outcome = match (cold_files.get(name), warm_files.get(name)) {
            (Some(c), Some(w)) if c == w => Ok(digest(&String::from_utf8_lossy(c).into_owned())),
            (Some(_), Some(_)) => Err("cold and warm passes differ".to_string()),
            _ => Err("written by only one pass".to_string()),
        };
        r.ops.push(OpRecord::new(
            format!("results/{name}/s{}", crate::workload::repro::config().seed),
            outcome,
        ));
    }
    let _ = fs::remove_dir_all(&cache);
    let _ = fs::remove_dir_all(&cold.cwd);
    let _ = fs::remove_dir_all(&warm.cwd);
    let (Some(&cold_s), Some(&warm_s)) =
        (cold.report.samples_s.first(), warm.report.samples_s.first())
    else {
        r.failures
            .push("a reproduction pass measured nothing".into());
        return None;
    };
    Some(ReproJob {
        cold_s,
        warm_s,
        cold: cold.report,
        warm: warm.report,
        cache_bytes,
    })
}

fn set_end_to_end(out: &mut RunOutcome, ops_per_s: f64, peak_rss_mb: f64) {
    let values = [
        median(&out.op_samples_s) * 1e3,
        ops_per_s,
        median(&out.setup_samples_s),
        peak_rss_mb,
    ];
    for (m, v) in END_TO_END.iter().zip(values) {
        out.metrics.push((m.name.into(), v, m.unit.into()));
    }
}

/// Derives the per-layer metrics of a traced run, checks that the
/// layer spans cover each op, and writes the spans to
/// `work/trace-<workload>.json`.
fn set_per_layer(r: &mut Runner, out: &mut RunOutcome, inp: &TracedInputs) {
    let values = metrics::derive_per_layer(inp);
    let coverage = values["trace.coverage_pct"];
    if coverage < MIN_COVERAGE_PCT {
        r.failures.push(format!(
            "layer spans cover only {coverage:.1}% of an op (want {MIN_COVERAGE_PCT}%)"
        ));
    }
    for (name, unit) in metrics::per_layer() {
        let v = values[&name];
        out.metrics.push((name, v, unit.into()));
    }
    let mut file = Map::new();
    file.insert("workload".into(), Value::from(r.args.kind.name()));
    file.insert("seed".into(), Value::from(r.args.seed));
    let spans: Vec<&Vec<crate::trace::Span>> = inp.traced.iter().map(|c| &c.spans).collect();
    file.insert(
        "processes".into(),
        serde_json::to_value(&spans).expect("plain JSON"),
    );
    let path = work_root().join(format!("trace-{}.json", r.args.kind.name()));
    let text = serde_json::to_string(&Value::Object(file)).expect("plain JSON");
    match fs::write(&path, text) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => r.failures.push(format!("{}: {e}", path.display())),
    }
}

/// Failures among `ops`: reported errors, equal keys with different
/// digests (within this run), and digests that differ from the pinned
/// default-seed ones.
fn judge(ops: &[OpRecord], golden: &BTreeMap<String, String>) -> Vec<String> {
    let mut seen: BTreeMap<&str, &str> = BTreeMap::new();
    let mut failures = Vec::new();
    for op in ops {
        match (&op.digest, &op.error) {
            (_, Some(e)) => failures.push(format!("{}: {e}", op.key)),
            (Some(d), None) => {
                if let Some(prev) = seen.insert(&op.key, d) {
                    if prev != d {
                        failures.push(format!(
                            "{}: digest {d} differs from {prev} in this run",
                            op.key
                        ));
                    }
                }
                if let Some(pinned) = golden.get(&op.key) {
                    if pinned != d {
                        failures.push(format!(
                            "{}: digest {d} differs from pinned {pinned}",
                            op.key
                        ));
                    }
                }
            }
            (None, None) => failures.push(format!("{}: no digest", op.key)),
        }
    }
    failures
}

/// Pinned default-seed digests, `benchmark/golden.json` (empty when
/// absent).
pub fn load_golden() -> BTreeMap<String, String> {
    fs::read_to_string(golden_path())
        .ok()
        .and_then(|t| serde_json::from_str(&t).ok())
        .unwrap_or_default()
}

pub fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.json")
}

/// Every op digest a run produced, for pinning.
pub fn run_digests(args: RunArgs, jobs: usize) -> Result<BTreeMap<String, String>, String> {
    let mut r = Runner::new(args, "pin", Duration::from_secs(600));
    if args.kind == Kind::ReproQuick {
        repro_job(&mut r, 0, false);
    } else {
        let jobs = jobs.to_string();
        r.child(&["--role", "measure", "--jobs", jobs.as_str()], false, None);
    }
    let _ = fs::remove_dir_all(&r.dir);
    let mut failures = r.failures;
    failures.extend(judge(&r.ops, &BTreeMap::new()));
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    Ok(r.ops
        .into_iter()
        .filter_map(|o| Some((o.key, o.digest?)))
        .collect())
}

struct Finished {
    report: ChildReport,
    cwd: PathBuf,
}

/// Spawns children one at a time and gathers their ops.
struct Runner {
    exe: PathBuf,
    dir: PathBuf,
    deadline: Instant,
    n: usize,
    args: RunArgs,
    ops: Vec<OpRecord>,
    failures: Vec<String>,
}

impl Runner {
    /// A runner whose children live under a fresh
    /// `work/<purpose>-<workload>-<pid>/` and must end within `budget`.
    fn new(args: RunArgs, purpose: &str, budget: Duration) -> Runner {
        let dir = work_root().join(format!(
            "{purpose}-{}-{}",
            args.kind.name(),
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        Runner {
            exe: std::env::current_exe().expect("the running executable has a path"),
            dir,
            deadline: Instant::now() + budget,
            n: 0,
            args,
            ops: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Runs one child to completion in a fresh directory under the run
    /// directory. A child that fails, crashes or overruns the deadline is
    /// recorded as a failure and yields `None`.
    fn child(&mut self, role: &[&str], traced: bool, cache: Option<&Path>) -> Option<Finished> {
        self.n += 1;
        let cwd = self.dir.join(format!("child-{}", self.n));
        let label = format!("child {} ({})", self.n, role.join(" "));
        match self.spawn(&cwd, role, traced, cache) {
            Ok(report) => {
                self.ops.extend(report.ops.iter().cloned());
                Some(Finished { report, cwd })
            }
            Err(e) => {
                self.failures.push(format!("{label}: {e}"));
                None
            }
        }
    }

    fn spawn(
        &self,
        cwd: &Path,
        role: &[&str],
        traced: bool,
        cache: Option<&Path>,
    ) -> Result<ChildReport, String> {
        fs::create_dir_all(cwd).map_err(|e| e.to_string())?;
        let report_path = cwd.join("report.json");
        let cache = cache.map_or_else(|| cwd.join("cache"), Path::to_path_buf);
        let log = |name: &str| File::create(cwd.join(name)).map_err(|e| e.to_string());
        let seed = self.args.seed.to_string();
        let mut cmd = Command::new(&self.exe);
        cmd.arg("child")
            .args(["--workload", self.args.kind.name(), "--seed", &seed])
            .args(["--trace", if traced { "1" } else { "0" }])
            .args(role)
            .arg("--out")
            .arg(&report_path)
            .current_dir(cwd)
            .env("AEGIS_THREADS", threads().to_string())
            .env("AEGIS_OBS", if traced { "summary" } else { "off" })
            .env("AEGIS_FAULTS", "off")
            .env("AEGIS_CACHE_DIR", &cache)
            .env_remove("AEGIS_NO_CACHE")
            .env_remove("AEGIS_BENCH_SMOKE")
            .env_remove("AEGIS_BENCH_ONE")
            .stdin(Stdio::null())
            .stdout(log("stdout.txt")?)
            .stderr(log("stderr.txt")?);
        let mut child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
        let status = loop {
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                break status;
            }
            if Instant::now() > self.deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err("killed at the run deadline".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        if !status.success() {
            let stderr = fs::read_to_string(cwd.join("stderr.txt")).unwrap_or_default();
            let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
            return Err(format!("exited with {status}: {}", tail.join(" | ")));
        }
        let text = fs::read_to_string(&report_path).map_err(|e| format!("report: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("report: {e}"))
    }
}
