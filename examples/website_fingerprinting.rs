//! The website fingerprinting case study, end to end: a malicious
//! hypervisor learns which of 45 sites the confidential VM is browsing
//! from four HPC counters — until Aegis is deployed.
//!
//! ```sh
//! cargo run --release --example website_fingerprinting
//! ```

use aegis::fuzzer::FuzzerConfig;
use aegis::microarch::MicroArch;
use aegis::profiler::{RankConfig, WarmupConfig};
use aegis::sev::{Host, SevMode};
use aegis::workloads::{SecretApp, WebsiteCatalog};
use aegis::{
    AegisConfig, AegisPipeline, Attacker, ClassifierAttack, CollectConfig, Collector,
    DefenseDeployment, MechanismChoice,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 7);
    let vm = host.launch_vm(1, SevMode::SevSnp)?;
    let app = WebsiteCatalog::new(7);
    let core = host.core_of(vm, 0)?;
    let events = host.core(core).catalog().attack_events().to_vec();
    println!("attacker monitors 4 events on the guest's core:");
    for &e in &events {
        println!("  {}", host.core(core).catalog().get(e).unwrap().name);
    }

    // ── The attack (Section III-C) ─────────────────────────────────────
    let collect = CollectConfig {
        traces_per_secret: 8,
        window_ns: 400_000_000,
        interval_ns: 1_000_000,
        pool: 20,
        seed: 7,
        per_secret_noise: false,
    };
    println!(
        "\ncollecting {} template traces ...",
        45 * collect.traces_per_secret
    );
    let template = Collector::for_traces(collect).dataset(&host, vm, 0, &app, &events, None)?;
    let attacker = ClassifierAttack::fit(&template, 7);
    println!(
        "attacker validation accuracy: {:.1}%",
        attacker.curve.final_val_acc() * 100.0
    );

    let mut victim_cfg = collect;
    victim_cfg.seed = 99;
    victim_cfg.traces_per_secret = 4;
    let victim = Collector::for_traces(victim_cfg).dataset(&host, vm, 0, &app, &events, None)?;
    println!(
        "victim-VM fingerprinting accuracy (undefended): {:.1}%  — the side channel works",
        attacker.accuracy(&victim) * 100.0
    );

    // ── The defense ────────────────────────────────────────────────────
    println!("\nrunning the Aegis offline pipeline ...");
    let cfg = AegisConfig {
        warmup: WarmupConfig {
            probe_ns: 2_000_000,
            passes: 2,
            ..WarmupConfig::default()
        },
        rank: RankConfig {
            reps_per_secret: 2,
            window_ns: 60_000_000,
            ..RankConfig::default()
        },
        fuzzer: FuzzerConfig {
            candidates_per_event: 150,
            confirm_reps: 10,
            ..FuzzerConfig::default()
        },
        fuzz_top_events: 10,
        isa_seed: 7,
        ..AegisConfig::default()
    };
    let plan = AegisPipeline::offline(&mut host, vm, 0, &app, &cfg)?;
    println!(
        "  {} vulnerable events; {} covering gadgets",
        plan.vulnerable_events.len(),
        plan.covering.len()
    );

    for (label, mech) in [
        ("Laplace ε=2⁰", MechanismChoice::Laplace { epsilon: 1.0 }),
        ("d* ε=2³", MechanismChoice::DStar { epsilon: 8.0 }),
    ] {
        let deployment = DefenseDeployment::new(&plan, mech);
        let defended = Collector::for_traces(victim_cfg).dataset(
            &host,
            vm,
            0,
            &app,
            &events,
            Some(&deployment),
        )?;
        println!(
            "victim accuracy under {label}: {:.1}%  (random guess {:.1}%)",
            attacker.accuracy(&defended) * 100.0,
            100.0 / app.n_secrets() as f64
        );
    }
    Ok(())
}
