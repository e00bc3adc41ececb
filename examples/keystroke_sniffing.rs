//! The keystroke sniffing case study with a privacy-budget sweep: watch
//! the attack accuracy collapse as ε shrinks, and what it costs.
//!
//! ```sh
//! cargo run --release --example keystroke_sniffing
//! ```

use aegis::fuzzer::FuzzerConfig;
use aegis::microarch::MicroArch;
use aegis::profiler::{RankConfig, WarmupConfig};
use aegis::sev::{Host, SevMode};
use aegis::workloads::KeystrokeApp;
use aegis::{
    measure_app_run, AegisConfig, AegisPipeline, Attacker, ClassifierAttack, CollectConfig,
    Collector, DefenseDeployment, MechanismChoice,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 7);
    let vm = host.launch_vm(1, SevMode::SevSnp)?;
    let app = KeystrokeApp::with_window(600_000_000);
    let core = host.core_of(vm, 0)?;
    let events = host.core(core).catalog().attack_events().to_vec();

    let collect = CollectConfig {
        traces_per_secret: 20,
        window_ns: 600_000_000,
        interval_ns: 2_000_000,
        pool: 25,
        seed: 7,
        per_secret_noise: false,
    };
    println!("training the keystroke sniffer ...");
    let template = Collector::for_traces(collect).dataset(&host, vm, 0, &app, &events, None)?;
    let attacker = ClassifierAttack::fit(&template, 7);
    println!(
        "sniffer validation accuracy: {:.1}% (random guess 10%)",
        attacker.curve.final_val_acc() * 100.0
    );

    println!("\nrunning the Aegis offline pipeline ...");
    let plan = AegisPipeline::offline(
        &mut host,
        vm,
        0,
        &app,
        &AegisConfig {
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
        },
    )?;

    // Baseline latency of one 600 ms keystroke window.
    let mut rng = StdRng::seed_from_u64(3);
    let plan600 = aegis::workloads::SecretApp::sample_plan(&app, 5, &mut rng);
    let base = measure_app_run(&mut host, vm, 0, plan600.clone(), None, 0)?;

    println!("\n  ε        sniffer accuracy   latency overhead");
    for exp in [3i32, 1, 0, -1, -3] {
        let eps = 2f64.powi(exp);
        let deployment = DefenseDeployment::new(&plan, MechanismChoice::Laplace { epsilon: eps });
        let mut victim_cfg = collect;
        victim_cfg.seed = 1000 + exp.unsigned_abs() as u64;
        victim_cfg.traces_per_secret = 10;
        let defended = Collector::for_traces(victim_cfg).dataset(
            &host,
            vm,
            0,
            &app,
            &events,
            Some(&deployment),
        )?;
        let run = measure_app_run(&mut host, vm, 0, plan600.clone(), Some(&deployment), 1)?;
        println!(
            "  2^{exp:<+3}      {:>6.1}%            {:>+6.2}%",
            attacker.accuracy(&defended) * 100.0,
            (run.latency_ns as f64 / base.latency_ns as f64 - 1.0) * 100.0
        );
    }
    println!("\nsmaller ε ⇒ stronger privacy, higher cost — the customer picks the trade-off.");
    Ok(())
}
