//! Quickstart: protect an application against HPC side channels in three
//! steps — profile offline, fuzz for gadgets, deploy the obfuscator.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use aegis::fuzzer::FuzzerConfig;
use aegis::microarch::MicroArch;
use aegis::profiler::{RankConfig, WarmupConfig};
use aegis::sev::{Host, SevMode};
use aegis::workloads::KeystrokeApp;
use aegis::{AegisConfig, AegisPipeline, DefenseDeployment, ObsLevel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── Offline stage ───────────────────────────────────────────────────
    // The customer rents a *template server* of the same processor family
    // as the target cloud (here: the paper's AMD EPYC 7252 SEV testbed)
    // and runs the application with representative secrets.
    let mut template = Host::new(MicroArch::AmdEpyc7252, 2, 7);
    let vm = template.launch_vm(1, SevMode::SevSnp)?;
    let app = KeystrokeApp::with_window(600_000_000);

    println!(
        "[1/3] profiling {} on {} ...",
        app_name(&app),
        template.arch()
    );
    // The builder validates as it goes: ε must be positive, thread counts
    // at least 1. `apply_runtime` installs the thread-pool size and the
    // observability level process-wide.
    let cfg = AegisConfig::builder()
        .epsilon(1.0)
        .obs(ObsLevel::Summary)
        .warmup(WarmupConfig {
            probe_ns: 2_000_000,
            passes: 2,
            ..WarmupConfig::default()
        })
        .rank(RankConfig {
            reps_per_secret: 2,
            window_ns: 60_000_000,
            ..RankConfig::default()
        })
        .fuzzer(FuzzerConfig {
            candidates_per_event: 120,
            confirm_reps: 10,
            ..FuzzerConfig::default()
        })
        .fuzz_top_events(8)
        .isa_seed(7)
        .build()?;
    cfg.apply_runtime();
    let plan = AegisPipeline::offline(&mut template, vm, 0, &app, &cfg)?;

    println!(
        "      {} vulnerable HPC events found",
        plan.vulnerable_events.len()
    );
    println!("      most dangerous events by mutual information:");
    for r in plan.rankings.iter().take(5) {
        println!("        {:<40} {:.2} bits", r.name, r.mi_bits);
    }
    println!(
        "[2/3] fuzzer found a covering set of {} gadgets ({} confirmed gadgets before filtering)",
        plan.covering.len(),
        plan.gadget_stats.mean * plan.rankings.len().min(cfg.fuzz_top_events) as f64,
    );

    // ── Online stage ────────────────────────────────────────────────────
    // Ship the plan into the production VM and start the Event Obfuscator
    // with the Laplace mechanism at the paper's operating point ε = 2⁰.
    let deployment = DefenseDeployment::new(&plan, cfg.mechanism);
    let receipt = deployment.deploy(&mut template, vm, 0, 42)?;
    println!(
        "[3/3] obfuscator deployed: {} at ε = 1 (plan {:#018x}, ε-cost {})",
        receipt.mechanism, receipt.plan_id, receipt.epsilon_charged
    );

    // Let the VM run and show that noise is being injected.
    template.reset_vm_stats(vm)?;
    template.run(100_000_000);
    let stats = template.vcpu_stats(vm, 0)?;
    println!(
        "      after 100 ms: {:.2e} noise µops injected ({:.1}% of one core)",
        stats.injected_uops,
        stats.injected_uops / (template.arch().uops_capacity_per_us() * 100_000.0) * 100.0
    );

    // End-of-run observability summary (spans, counters, histograms).
    for line in aegis::obs::render_summary(&aegis::obs::snapshot()).lines() {
        eprintln!("[obs] {line}");
    }
    Ok(())
}

fn app_name(app: &dyn aegis::workloads::SecretApp) -> &str {
    app.name()
}
