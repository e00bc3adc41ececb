//! End-to-end benchmark of the Aegis reproduction: four workloads, a
//! fixed metric set, and separate traced runs for per-layer numbers.
//! See README.md for the workloads, metrics and how to compare runs.

mod compare;
mod harness;
mod metrics;
mod stats;
mod trace;
mod workload;

use harness::RunArgs;
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workload::{Budget, Kind};

const USAGE: &str = "\
usage:
  aegis-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                      [--runs R] [--out DIR]
  aegis-benchmark compare BASELINE_DIR CANDIDATE_DIR
  aegis-benchmark pin

run      measures one workload (or all four) and prints every metric; the
         last stdout line is the JSON result. --runs repeats each workload
         with seeds N, N+1, ...; --out writes one result file per run.
compare  judges two directories of result files metric by metric.
pin      rewrites golden.json with the default-seed op digests.

workloads: offline-plan, evaluate-attack, repro-quick, fleet-storm";

const DEFAULT_SEED: u64 = 7;
const DEFAULT_SECONDS: u64 = 12;

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(rest),
        Some("compare") => return compare::main(rest),
        Some("pin") => cmd_pin(),
        Some("child") => cmd_child(rest, started),
        _ => Err("missing or unknown command".into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}\n\n{USAGE}");
        ExitCode::from(2)
    })
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args)?;
    let kinds = match f.get("workload") {
        Some(w) => vec![Kind::parse(w).ok_or_else(|| format!("unknown workload {w:?}"))?],
        None => Kind::ALL.to_vec(),
    };
    let seed = num(&f, "seed", DEFAULT_SEED)?;
    let seconds = num(&f, "seconds", DEFAULT_SECONDS)?.max(1);
    let runs = num(&f, "runs", 1)?.max(1);
    let trace = match f.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("--trace takes 0 or 1, not {t:?}")),
    };
    let out_dir = f.get("out").map(Path::new);
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let meta = out_dir.map(|_| meta());
    let mut all_correct = true;
    for kind in kinds {
        for i in 0..runs {
            let args = RunArgs {
                kind,
                seed: seed.wrapping_add(i),
                seconds,
                trace,
            };
            let outcome = harness::run(args);
            all_correct &= outcome.correct();
            print!("{}", outcome.table());
            let result = outcome.result_json();
            if let (Some(dir), Some(meta)) = (out_dir, &meta) {
                let path = dir.join(format!(
                    "{}-s{}-t{}.json",
                    kind.name(),
                    args.seed,
                    u8::from(trace)
                ));
                let file = result_file(&outcome, result.clone(), meta.clone());
                std::fs::write(
                    &path,
                    serde_json::to_string_pretty(&file).expect("plain JSON"),
                )
                .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            println!("{}", serde_json::to_string(&result).expect("plain JSON"));
        }
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The jobs `pin` runs per workload: enough to cover every op key a
/// default-seed run can reach.
fn pin_jobs(kind: Kind) -> usize {
    match kind {
        Kind::OfflinePlan => 3,
        Kind::EvaluateAttack => 5,
        Kind::ReproQuick => 1,
        Kind::FleetStorm => 8,
    }
}

fn cmd_pin() -> Result<ExitCode, String> {
    let mut golden = BTreeMap::new();
    for kind in Kind::ALL {
        let args = RunArgs {
            kind,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
        };
        let digests = harness::run_digests(args, pin_jobs(kind))
            .map_err(|e| format!("{}: {e}", kind.name()))?;
        println!("{}: {} op digests", kind.name(), digests.len());
        golden.extend(digests);
    }
    let path = harness::golden_path();
    let text = serde_json::to_string_pretty(&golden).expect("plain JSON") + "\n";
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ExitCode::SUCCESS)
}

/// The measured process: `child --workload W --seed N --trace T --role
/// setup|measure [--seconds S | --jobs J] --out REPORT`.
fn cmd_child(args: &[String], started: Instant) -> Result<ExitCode, String> {
    let f = flags(args)?;
    let kind =
        Kind::parse(f.get("workload").ok_or("missing --workload")?).ok_or("unknown --workload")?;
    let seed = num(&f, "seed", DEFAULT_SEED)?;
    let traced = f.get("trace").is_some_and(|t| t == "1");
    let out = f.get("out").ok_or("missing --out")?;
    let report = match f.get("role").map(String::as_str) {
        Some("setup") => workload::run_child(kind, seed, Budget::SetupOnly, traced, started),
        Some("measure") => {
            let budget = match f.get("jobs") {
                Some(_) => Budget::Jobs(num(&f, "jobs", 1)? as usize),
                None => Budget::Time(Duration::from_secs(num(&f, "seconds", DEFAULT_SECONDS)?)),
            };
            workload::run_child(kind, seed, budget, traced, started)
        }
        _ => return Err("bad --role".into()),
    };
    let text = serde_json::to_string(&report).map_err(|e| e.to_string())?;
    std::fs::write(out, text).map_err(|e| format!("{out}: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

/// One saved run: the printed result plus what `compare` and a reader
/// need to reproduce it.
fn result_file(outcome: &harness::RunOutcome, result: Value, meta: Value) -> Value {
    let mut samples = Map::new();
    samples.insert("op_s".into(), json(&outcome.op_samples_s));
    samples.insert("setup_s".into(), json(&outcome.setup_samples_s));
    let mut file = Map::new();
    file.insert("workload".into(), Value::from(outcome.args.kind.name()));
    file.insert("seed".into(), Value::from(outcome.args.seed));
    file.insert("trace".into(), Value::from(u64::from(outcome.args.trace)));
    file.insert("run_seconds".into(), Value::from(outcome.args.seconds));
    file.insert("threads".into(), Value::from(harness::threads()));
    file.insert("meta".into(), meta);
    file.insert("result".into(), result);
    file.insert("samples".into(), Value::Object(samples));
    Value::Object(file)
}

/// The machine and build a result came from.
fn meta() -> Value {
    let first_line = |cmd: &mut Command| {
        cmd.output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".into())
    };
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let cpus = std::fs::read_to_string("/proc/cpuinfo").map_or(0, |s| {
        s.lines().filter(|l| l.starts_with("processor")).count()
    });
    let mut m = Map::new();
    m.insert("nproc".into(), Value::from(cpus));
    m.insert(
        "available_parallelism".into(),
        Value::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
    );
    m.insert(
        "rustc".into(),
        Value::from(first_line(Command::new("rustc").arg("--version"))),
    );
    m.insert(
        "git_rev".into(),
        Value::from(first_line(
            Command::new("git")
                .arg("-C")
                .arg(&repo)
                .args(["rev-parse", "HEAD"]),
        )),
    );
    Value::Object(m)
}

fn json(xs: &[f64]) -> Value {
    serde_json::to_value(xs).expect("plain JSON")
}

fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn num(f: &BTreeMap<String, String>, name: &str, default: u64) -> Result<u64, String> {
    f.get(name).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("--{name} takes a whole number, not {v:?}"))
    })
}
