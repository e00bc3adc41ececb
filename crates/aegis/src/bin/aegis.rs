//! The `aegis` command-line tool: run the offline pipeline, persist the
//! resulting defense plan as JSON, inspect it, and evaluate attacks and
//! overhead against a deployment — all over the simulated SEV testbed.
//!
//! ```text
//! aegis offline  --app keystroke --out plan.json [--arch amd|intel] [--seed N] [--thorough]
//! aegis inspect  --plan plan.json
//! aegis evaluate --app keystroke --plan plan.json --mechanism laplace --epsilon 1.0
//! aegis overhead --app keystroke --plan plan.json --mechanism dstar --epsilon 8.0
//! ```

use aegis::fuzzer::FuzzerConfig;
use aegis::microarch::MicroArch;
use aegis::profiler::{RankConfig, WarmupConfig};
use aegis::sev::{Host, SevMode, VmId};
use aegis::workloads::{CryptoApp, DnnZoo, KeystrokeApp, SecretApp, WebsiteCatalog};
use aegis::{
    measure_app_run, AegisConfig, AegisPipeline, Attacker, ClassifierAttack, CollectConfig,
    Collector, DefenseDeployment, DefensePlan, MechanismChoice,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "\
aegis — HPC side-channel defense for confidential VMs (simulated testbed)

USAGE:
  aegis offline  --app <APP> --out <FILE> [--arch amd|intel] [--seed N] [--thorough]
  aegis inspect  --plan <FILE>
  aegis evaluate --app <APP> --plan <FILE> --mechanism <MECH> --epsilon <E> [--seed N]
  aegis overhead --app <APP> --plan <FILE> --mechanism <MECH> --epsilon <E> [--seed N]

APP:   website | keystroke | dnn | crypto
MECH:  laplace | dstar | random | constant

Every command also accepts --threads N (worker threads for parallel
collection and fuzzing; default: available parallelism, or the
AEGIS_THREADS environment variable). Results are bit-identical for any
thread count.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("missing command".into());
    };
    let opts = parse_flags(&args[1..])?;
    if let Some(n) = opts.get("threads") {
        let n: usize = n
            .parse()
            .map_err(|_| format!("bad --threads {n:?} (want a positive integer)"))?;
        if n == 0 {
            return Err("--threads must be at least 1".into());
        }
        aegis::par::set_threads(n);
    }
    let result = match command.as_str() {
        "offline" => offline(&opts),
        "inspect" => inspect(&opts),
        "evaluate" => evaluate(&opts),
        "overhead" => overhead(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return Ok(());
        }
        other => Err(format!("unknown command {other:?}")),
    };
    print_obs_summary();
    result
}

/// Renders the end-of-run observability summary on stderr. Lines carry an
/// `[obs] ` prefix so tooling that diffs stdout/stderr can filter them.
fn print_obs_summary() {
    if !aegis::obs::enabled() {
        return;
    }
    aegis::obs::flush();
    let summary = aegis::obs::render_summary(&aegis::obs::snapshot());
    for line in summary.lines() {
        eprintln!("[obs] {line}");
    }
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected a --flag, got {flag:?}"));
        };
        if name == "thorough" {
            out.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn seed(opts: &HashMap<String, String>) -> Result<u64, String> {
    match opts.get("seed") {
        None => Ok(7),
        Some(s) => s.parse().map_err(|_| format!("bad --seed {s:?}")),
    }
}

fn arch(opts: &HashMap<String, String>) -> Result<MicroArch, String> {
    match opts.get("arch").map(String::as_str) {
        None | Some("amd") => Ok(MicroArch::AmdEpyc7252),
        Some("intel") => Ok(MicroArch::IntelXeonE5_1650),
        Some(other) => Err(format!("unknown --arch {other:?} (amd|intel)")),
    }
}

fn app(opts: &HashMap<String, String>, s: u64) -> Result<Box<dyn SecretApp>, String> {
    match opts.get("app").ok_or("missing --app")?.as_str() {
        "website" => Ok(Box::new(WebsiteCatalog::new(s))),
        "keystroke" => Ok(Box::new(KeystrokeApp::with_window(400_000_000))),
        "dnn" => Ok(Box::new(DnnZoo::new(s))),
        "crypto" => Ok(Box::new(CryptoApp::with_window(4, 400_000_000))),
        other => Err(format!(
            "unknown --app {other:?} (website|keystroke|dnn|crypto)"
        )),
    }
}

fn mechanism(opts: &HashMap<String, String>) -> Result<MechanismChoice, String> {
    let eps: f64 = opts
        .get("epsilon")
        .ok_or("missing --epsilon")?
        .parse()
        .map_err(|_| "bad --epsilon")?;
    if eps <= 0.0 {
        return Err("--epsilon must be positive".into());
    }
    match opts.get("mechanism").ok_or("missing --mechanism")?.as_str() {
        "laplace" => Ok(MechanismChoice::Laplace { epsilon: eps }),
        "dstar" => Ok(MechanismChoice::DStar { epsilon: eps }),
        "random" => Ok(MechanismChoice::UniformRandom { bound: eps }),
        "constant" => Ok(MechanismChoice::ConstantOutput { peak: eps }),
        other => Err(format!(
            "unknown --mechanism {other:?} (laplace|dstar|random|constant)"
        )),
    }
}

fn template(arch: MicroArch, seed: u64) -> Result<(Host, VmId), String> {
    let mut host = Host::new(arch, 2, seed);
    let vm = host
        .launch_vm(1, SevMode::SevSnp)
        .map_err(|e| e.to_string())?;
    Ok((host, vm))
}

fn load_plan(opts: &HashMap<String, String>) -> Result<DefensePlan, String> {
    let path = opts.get("plan").ok_or("missing --plan")?;
    DefensePlan::load(path).map_err(|e| e.to_string())
}

fn collect_cfg(app: &dyn SecretApp, s: u64) -> CollectConfig {
    CollectConfig {
        traces_per_secret: (240 / app.n_secrets()).clamp(6, 24),
        window_ns: app.window_ns().min(400_000_000),
        interval_ns: 1_000_000,
        pool: 10,
        seed: s,
        per_secret_noise: false,
    }
}

fn offline(opts: &HashMap<String, String>) -> Result<(), String> {
    let s = seed(opts)?;
    let arch = arch(opts)?;
    let app = app(opts, s)?;
    let out = opts.get("out").ok_or("missing --out")?;
    let thorough = opts.contains_key("thorough");

    let (mut host, vm) = template(arch, s)?;
    eprintln!("profiling {} on {} ...", app.name(), arch);
    let cfg = AegisConfig::builder()
        .warmup(WarmupConfig {
            probe_ns: if thorough { 8_000_000 } else { 3_000_000 },
            passes: if thorough { 5 } else { 3 },
            ..WarmupConfig::default()
        })
        .rank(RankConfig {
            reps_per_secret: if thorough { 4 } else { 2 },
            window_ns: 80_000_000,
            interval_ns: 10_000_000,
            seed: s,
        })
        .fuzzer(FuzzerConfig {
            candidates_per_event: if thorough { 400 } else { 150 },
            confirm_reps: 10,
            seed: s,
            ..FuzzerConfig::default()
        })
        .fuzz_top_events(if thorough { 24 } else { 10 })
        .isa_seed(s)
        .build()
        .map_err(|e| e.to_string())?;
    let plan =
        AegisPipeline::offline(&mut host, vm, 0, app.as_ref(), &cfg).map_err(|e| e.to_string())?;
    plan.save(out).map_err(|e| e.to_string())?;
    println!(
        "plan written to {out}: {} vulnerable events, {} covering gadgets",
        plan.vulnerable_events.len(),
        plan.covering.len()
    );
    Ok(())
}

fn inspect(opts: &HashMap<String, String>) -> Result<(), String> {
    let plan = load_plan(opts)?;
    println!("vulnerable events: {}", plan.vulnerable_events.len());
    println!("top-ranked events by mutual information:");
    for r in plan.rankings.iter().take(10) {
        println!("  {:<44} {:.3} bits", r.name, r.mi_bits);
    }
    println!(
        "covering set: {} gadgets over {} events",
        plan.covering.len(),
        plan.covered_events()
    );
    for cg in &plan.covering {
        println!("  {}  covers {} events", cg.gadget, cg.covers.len());
    }
    println!(
        "stack: {} gadgets, {:.1} µops per execution",
        plan.stack.len(),
        plan.stack.unit_uops()
    );
    println!(
        "fuzzing: {} gadgets tested at {:.0}/s; {} usable instructions",
        plan.fuzz_report.gadgets_tested,
        plan.fuzz_report.throughput_per_second(),
        plan.fuzz_report.usable_instructions
    );
    Ok(())
}

fn evaluate(opts: &HashMap<String, String>) -> Result<(), String> {
    let s = seed(opts)?;
    let arch = arch(opts)?;
    let app = app(opts, s)?;
    let plan = load_plan(opts)?;
    let mech = mechanism(opts)?;
    let (host, vm) = template(arch, s)?;
    let core = host.core_of(vm, 0).map_err(|e| e.to_string())?;
    let events = host.core(core).catalog().attack_events().to_vec();
    let cfg = collect_cfg(app.as_ref(), s);

    eprintln!("training the attacker on clean traces ...");
    let clean = Collector::for_traces(cfg)
        .dataset(&host, vm, 0, app.as_ref(), &events, None)
        .map_err(|e| e.to_string())?;
    let attacker = ClassifierAttack::fit(&clean, s);
    println!(
        "clean attack accuracy:    {:6.2}%  (random guess {:.2}%)",
        attacker.curve.final_val_acc() * 100.0,
        100.0 / app.n_secrets() as f64
    );

    let deployment = DefenseDeployment::new(&plan, mech);
    let mut victim = cfg;
    victim.seed = s ^ 0xc11;
    let defended = Collector::for_traces(victim)
        .dataset(&host, vm, 0, app.as_ref(), &events, Some(&deployment))
        .map_err(|e| e.to_string())?;
    println!(
        "defended attack accuracy: {:6.2}%  under {}",
        attacker.accuracy(&defended) * 100.0,
        deployment.mechanism.label()
    );
    Ok(())
}

fn overhead(opts: &HashMap<String, String>) -> Result<(), String> {
    let s = seed(opts)?;
    let arch = arch(opts)?;
    let app = app(opts, s)?;
    let plan = load_plan(opts)?;
    let mech = mechanism(opts)?;
    let (mut host, vm) = template(arch, s)?;
    let deployment = DefenseDeployment::new(&plan, mech);

    let runs = 8;
    let mut rng = StdRng::seed_from_u64(s ^ 0x0f0f);
    let mut base = (0.0f64, 0.0f64);
    let mut def = (0.0f64, 0.0f64);
    for i in 0..runs {
        let plan_run = app.sample_plan(i % app.n_secrets(), &mut rng);
        let b = measure_app_run(&mut host, vm, 0, plan_run.clone(), None, i as u64)
            .map_err(|e| e.to_string())?;
        let d = measure_app_run(&mut host, vm, 0, plan_run, Some(&deployment), i as u64)
            .map_err(|e| e.to_string())?;
        base.0 += b.latency_ns as f64 / runs as f64;
        base.1 += b.cpu_usage / runs as f64;
        def.0 += d.latency_ns as f64 / runs as f64;
        def.1 += d.cpu_usage / runs as f64;
    }
    println!(
        "baseline:  latency {:9.2} ms, cpu {:5.2}%",
        base.0 / 1e6,
        base.1 * 100.0
    );
    println!(
        "defended:  latency {:9.2} ms, cpu {:5.2}%",
        def.0 / 1e6,
        def.1 * 100.0
    );
    println!(
        "overhead:  latency {:+.2}%, cpu {:+.2}%  under {}",
        (def.0 / base.0 - 1.0) * 100.0,
        (def.1 / base.1 - 1.0) * 100.0,
        deployment.mechanism.label()
    );
    Ok(())
}
