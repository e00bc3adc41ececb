//! Fig. 1: training curves of the three HPC side-channel attacks, plus
//! their final accuracy on fresh victim traces.
//!
//! Paper reference points: WFA 98.72% validation / 98.57% victim,
//! KSA 95.21% / 95.48%, MEA 91.8% / 90.5%.

use crate::output::{pct, print_header, print_kv, Table};
use crate::scenarios::{clean_cached, ksa_app, mea_zoo, new_host, wfa_app, ExpConfig};
use aegis::attack::TrainingCurve;
use aegis::par::{ArtifactCache, ArtifactKey};
use aegis::workloads::SecretApp;
use aegis::{Attacker, ClassifierAttack, MeaAttack};

/// Learning-curve increments per panel (the rows' "epochs").
const CURVE_INCREMENTS: usize = 60;

pub fn run(cfg: &ExpConfig) {
    let wfa = wfa_app(cfg);
    attack::<ClassifierAttack>(
        cfg,
        [
            "Fig. 1a — Website fingerprinting attack (paper: 98.72% val / 98.57% victim)",
            "validation accuracy",
            "victim-VM accuracy",
        ],
        &wfa,
        cfg.wfa_collect(),
        0,
        cfg.sweep_traces_per_secret(wfa.n_secrets()),
    );
    attack::<ClassifierAttack>(
        cfg,
        [
            "Fig. 1b — Keystroke sniffing attack (paper: 95.21% val / 95.48% victim)",
            "validation accuracy",
            "victim-VM accuracy",
        ],
        &ksa_app(cfg),
        cfg.ksa_collect(),
        1,
        8,
    );
    attack::<MeaAttack>(
        cfg,
        [
            "Fig. 1c — DNN model extraction attack (paper: 91.8% val / 90.5% victim)",
            "slice-classifier validation accuracy",
            "victim layer-sequence accuracy",
        ],
        &mea_zoo(cfg),
        cfg.mea_collect(),
        2,
        2,
    );
}

fn curve_table(curve: &TrainingCurve) -> Table {
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

/// One panel: train on clean data collected on a host seeded
/// `seed + seed_off`, print its learning curve, then score fresh clean
/// victim data (`victim_per_secret` traces or runs per secret). `labels`
/// are the panel header and the validation and victim row labels.
fn attack<A: Attacker>(
    cfg: &ExpConfig,
    [header, val_label, victim_label]: [&str; 3],
    target: &A::Target,
    collect: A::Collect,
    seed_off: u64,
    victim_per_secret: usize,
) {
    print_header(header);
    let host_seed = cfg.seed + seed_off;
    let (host, vm) = new_host(host_seed);
    let core = host.core_of(vm, 0).unwrap();
    let events = host.core(core).catalog().attack_events().to_vec();

    let clean = clean_cached::<A>(host_seed, &host, vm, 0, target, &events, &collect);
    let cache = ArtifactCache::default_location();
    let attack = A::train_cached(&clean, cfg.seed, &cache);
    // The curve refits the model 60 times, so it is memoized beside it.
    let model = A::model_key(&clean, cfg.seed);
    let key = ArtifactKey::of("learning-curve", &(model.kind, model.key, CURVE_INCREMENTS));
    let curve = cache.get_col(&key).unwrap_or_else(|| {
        let curve = A::learning_curve(&clean, CURVE_INCREMENTS, cfg.seed);
        let _ = cache.put_col(&key, &curve);
        curve
    });
    curve_table(&curve).print();

    let victim_cfg = A::configure(&collect, victim_per_secret, cfg.seed ^ 0xbeef);
    let victim = clean_cached::<A>(host_seed, &host, vm, 0, target, &events, &victim_cfg);
    print_kv(val_label, pct(curve.final_val_acc()));
    print_kv(victim_label, pct(attack.score(&victim)));
}
