//! Fig. 1: training curves of the three HPC side-channel attacks, plus
//! their final accuracy on fresh victim traces.
//!
//! Paper reference points: WFA 98.72% validation / 98.57% victim,
//! KSA 95.21% / 95.48%, MEA 91.8% / 90.5%.

use crate::output::{pct, print_header, print_kv, Table};
use crate::scenarios::{
    clean_dataset_cached, clean_mea_runs_cached, ksa_app, mea_zoo, new_host, wfa_app, ExpConfig,
};
use aegis::attack::TrainConfig;
use aegis::par::ArtifactCache;
use aegis::workloads::SecretApp;
use aegis::{ClassifierAttack, MeaAttack};

pub fn run(cfg: &ExpConfig) {
    wfa(cfg);
    ksa(cfg);
    mea(cfg);
}

fn curve_table(curve: &aegis::attack::TrainingCurve) -> Table {
    let mut t = Table::new(&["epoch", "train_loss", "train_acc", "val_acc"]);
    let step = (curve.epochs.len() / 10).max(1);
    for e in curve.epochs.iter().step_by(step) {
        t.row_strings(vec![
            e.epoch.to_string(),
            format!("{:.4}", e.train_loss),
            pct(e.train_acc),
            pct(e.val_acc),
        ]);
    }
    t
}

fn wfa(cfg: &ExpConfig) {
    print_header("Fig. 1a — Website fingerprinting attack (paper: 98.72% val / 98.57% victim)");
    let (host, vm) = new_host(cfg.seed);
    let app = wfa_app(cfg);
    let core = host.core_of(vm, 0).unwrap();
    let events = host.core(core).catalog().attack_events().to_vec();
    let collect = cfg.wfa_collect();

    let clean = clean_dataset_cached(cfg.seed, &host, vm, 0, &app, &events, &collect);
    let attack = ClassifierAttack::train_cached(
        &clean,
        TrainConfig::default(),
        cfg.seed,
        &ArtifactCache::default_location(),
    );
    curve_table(&attack.curve).print();

    let mut victim_cfg = collect;
    victim_cfg.seed = cfg.seed ^ 0xbeef;
    victim_cfg.traces_per_secret = cfg.sweep_traces_per_secret(app.n_secrets());
    let victim = clean_dataset_cached(cfg.seed, &host, vm, 0, &app, &events, &victim_cfg);
    print_kv("validation accuracy", pct(attack.curve.final_val_acc()));
    print_kv("victim-VM accuracy", pct(attack.accuracy(&victim)));
}

fn ksa(cfg: &ExpConfig) {
    print_header("Fig. 1b — Keystroke sniffing attack (paper: 95.21% val / 95.48% victim)");
    let (host, vm) = new_host(cfg.seed + 1);
    let app = ksa_app(cfg);
    let core = host.core_of(vm, 0).unwrap();
    let events = host.core(core).catalog().attack_events().to_vec();
    let collect = cfg.ksa_collect();

    let clean = clean_dataset_cached(cfg.seed + 1, &host, vm, 0, &app, &events, &collect);
    let attack = ClassifierAttack::train_cached(
        &clean,
        TrainConfig::default(),
        cfg.seed,
        &ArtifactCache::default_location(),
    );
    curve_table(&attack.curve).print();

    let mut victim_cfg = collect;
    victim_cfg.seed = cfg.seed ^ 0xbeef;
    victim_cfg.traces_per_secret = 8;
    let victim = clean_dataset_cached(cfg.seed + 1, &host, vm, 0, &app, &events, &victim_cfg);
    print_kv("validation accuracy", pct(attack.curve.final_val_acc()));
    print_kv("victim-VM accuracy", pct(attack.accuracy(&victim)));
}

fn mea(cfg: &ExpConfig) {
    print_header("Fig. 1c — DNN model extraction attack (paper: 91.8% val / 90.5% victim)");
    let (host, vm) = new_host(cfg.seed + 2);
    let zoo = mea_zoo(cfg);
    let core = host.core_of(vm, 0).unwrap();
    let events = host.core(core).catalog().attack_events().to_vec();
    let collect = cfg.mea_collect();

    let runs = clean_mea_runs_cached(cfg.seed + 2, &host, vm, 0, &zoo, &events, &collect);
    let attack = MeaAttack::train_cached(
        &runs,
        TrainConfig::default(),
        cfg.seed,
        &ArtifactCache::default_location(),
    );
    curve_table(&attack.curve).print();
    print_kv(
        "slice-classifier validation accuracy",
        pct(attack.curve.final_val_acc()),
    );

    let mut victim_cfg = collect;
    victim_cfg.seed = cfg.seed ^ 0xbeef;
    victim_cfg.runs_per_model = 2;
    let victim = clean_mea_runs_cached(cfg.seed + 2, &host, vm, 0, &zoo, &events, &victim_cfg);
    print_kv(
        "victim layer-sequence accuracy",
        pct(attack.sequence_accuracy(&victim)),
    );
}
