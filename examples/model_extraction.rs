//! The DNN model extraction case study: the hypervisor reconstructs the
//! layer architecture of models running inside the confidential VM from
//! HPC traces of their inference, then Aegis shuts the channel down.
//!
//! ```sh
//! cargo run --release --example model_extraction
//! ```

use aegis::microarch::MicroArch;
use aegis::sev::{Host, SevMode};
use aegis::workloads::{DnnZoo, LayerKind, SecretApp};
use aegis::{Collector, MeaAttack, MeaConfig};

fn layer_string(seq: &[usize]) -> String {
    seq.iter()
        .map(|&i| {
            LayerKind::ALL.get(i).map_or("?", |k| match k {
                LayerKind::Conv => "C",
                LayerKind::Fc => "F",
                LayerKind::Pool => "P",
                LayerKind::BatchNorm => "B",
                LayerKind::ReLU => "R",
                LayerKind::Dropout => "D",
                LayerKind::Add => "+",
                LayerKind::Concat => "#",
                LayerKind::Gru => "G",
                LayerKind::Attention => "A",
                LayerKind::Embed => "E",
                LayerKind::Softmax => "S",
            })
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 7);
    let vm = host.launch_vm(1, SevMode::SevSnp)?;
    let zoo = DnnZoo::new(7);
    let core = host.core_of(vm, 0)?;
    let events = host.core(core).catalog().attack_events().to_vec();

    let cfg = MeaConfig {
        runs_per_model: 4,
        interval_ns: 1_000_000,
        pad_ns: 20_000_000,
        seed: 7,
    };
    println!("monitoring inference of {} models ...", zoo.n_secrets());
    let runs = Collector::for_mea(cfg).mea_runs(&host, vm, 0, &zoo, &events, None)?;
    let attacker = MeaAttack::train(&runs, 7);
    println!(
        "slice-classifier validation accuracy: {:.1}%",
        attacker.slices.curve.final_val_acc() * 100.0
    );

    // Extract a few fresh victim runs and show them next to ground truth.
    let mut victim_cfg = cfg;
    victim_cfg.runs_per_model = 1;
    victim_cfg.seed = 99;
    let victims = Collector::for_mea(victim_cfg).mea_runs(&host, vm, 0, &zoo, &events, None)?;
    println!("\nlegend: C=conv F=fc P=pool B=bn R=relu D=dropout +=add #=concat G=gru A=attn E=embed S=softmax");
    for (model, run) in victims.iter().take(4) {
        let extracted = attacker.extract(run);
        println!(
            "\n  model {:<22} ({} layers)",
            zoo.secret_name(*model),
            run.truth.len()
        );
        println!("    truth:     {}", layer_string(&run.truth));
        println!("    extracted: {}", layer_string(&extracted));
        println!(
            "    layer-match accuracy: {:.1}%",
            aegis::attack::layer_match_accuracy(&extracted, &run.truth) * 100.0
        );
    }
    println!(
        "\noverall extraction accuracy (undefended): {:.1}%",
        attacker.sequence_accuracy(&victims) * 100.0
    );

    // Defense: reuse a fast offline plan and re-run the extraction.
    println!("\ndeploying Aegis (Laplace ε = 2⁻³ for the paper's strongest setting) ...");
    let plan = {
        use aegis::fuzzer::FuzzerConfig;
        use aegis::profiler::{RankConfig, WarmupConfig};
        use aegis::{AegisConfig, AegisPipeline};
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
        AegisPipeline::offline(&mut host, vm, 0, &zoo, &cfg)?
    };
    let deployment =
        aegis::DefenseDeployment::new(&plan, aegis::MechanismChoice::Laplace { epsilon: 0.125 });
    let defended =
        Collector::for_mea(victim_cfg).mea_runs(&host, vm, 0, &zoo, &events, Some(&deployment))?;
    println!(
        "extraction accuracy under Aegis: {:.1}%",
        attacker.sequence_accuracy(&defended) * 100.0
    );
    Ok(())
}
