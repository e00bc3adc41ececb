//! DNN-inference workloads for the model extraction case study.
//!
//! The paper extracts the layer architecture of 30 common PyTorch models
//! from HPC traces of their inference runs. Here each model is a sequence
//! of typed layers, each layer a burst of characteristic activity whose
//! duration scales with the layer's size; inference repeats until the
//! 3-second monitoring window is full. The zoo also exposes per-run layer
//! spans as the attacker's ground truth for sequence learning.

use crate::app::SecretApp;
use crate::mix::MixSpec;
use crate::plan::{Segment, WorkloadPlan};
use aegis_microarch::rand_util::normal;
use aegis_microarch::ActivityVector;
use rand::rngs::StdRng;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// Number of models in the zoo.
pub const N_MODELS: usize = 30;

/// Layer types occurring in the zoo's architectures — the alphabet of the
/// sequence-to-sequence extraction task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LayerKind {
    /// 2-D convolution.
    Conv,
    /// Fully connected / linear.
    Fc,
    /// Max/avg pooling.
    Pool,
    /// Batch normalization.
    BatchNorm,
    /// ReLU-family activation.
    ReLU,
    /// Dropout.
    Dropout,
    /// Residual addition.
    Add,
    /// Channel concatenation.
    Concat,
    /// Gated recurrent unit step.
    Gru,
    /// Self-attention block.
    Attention,
    /// Embedding lookup.
    Embed,
    /// Softmax head.
    Softmax,
}

impl LayerKind {
    /// All layer kinds, in a stable order (the CTC alphabet).
    pub const ALL: [LayerKind; 12] = [
        LayerKind::Conv,
        LayerKind::Fc,
        LayerKind::Pool,
        LayerKind::BatchNorm,
        LayerKind::ReLU,
        LayerKind::Dropout,
        LayerKind::Add,
        LayerKind::Concat,
        LayerKind::Gru,
        LayerKind::Attention,
        LayerKind::Embed,
        LayerKind::Softmax,
    ];

    /// Index within [`LayerKind::ALL`].
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&k| k == self).expect("in ALL")
    }

    /// Base `(duration_ms, mix)` of one layer of unit size.
    fn template(self) -> (f64, MixSpec) {
        let base = MixSpec {
            uops_per_us: 0.0,
            load_frac: 0.35,
            store_frac: 0.12,
            l1_miss_rate: 0.06,
            l2_miss_rate: 0.4,
            llc_miss_rate: 0.3,
            branch_frac: 0.08,
            branch_miss_rate: 0.02,
            simd_frac: 0.0,
            fp_frac: 0.02,
            syscalls_per_us: 0.0005,
            page_faults_per_us: 0.0001,
        };
        match self {
            LayerKind::Conv => (
                6.0,
                MixSpec {
                    uops_per_us: 2_450.0,
                    load_frac: 0.3,
                    store_frac: 0.15,
                    l1_miss_rate: 0.07,
                    l2_miss_rate: 0.5,
                    llc_miss_rate: 0.6,
                    simd_frac: 0.7,
                    ..base
                },
            ),
            LayerKind::Fc => (
                4.0,
                MixSpec {
                    uops_per_us: 2_150.0,
                    load_frac: 0.4,
                    store_frac: 0.17,
                    l1_miss_rate: 0.18,
                    l2_miss_rate: 0.6,
                    llc_miss_rate: 0.7,
                    simd_frac: 0.5,
                    ..base
                },
            ),
            LayerKind::Pool => (
                2.5,
                MixSpec {
                    uops_per_us: 1_250.0,
                    load_frac: 0.33,
                    store_frac: 0.12,
                    l1_miss_rate: 0.05,
                    l2_miss_rate: 0.4,
                    llc_miss_rate: 0.3,
                    simd_frac: 0.3,
                    ..base
                },
            ),
            LayerKind::BatchNorm => (
                2.0,
                MixSpec {
                    uops_per_us: 1_850.0,
                    load_frac: 0.26,
                    store_frac: 0.14,
                    l1_miss_rate: 0.04,
                    l2_miss_rate: 0.4,
                    llc_miss_rate: 0.3,
                    simd_frac: 0.6,
                    ..base
                },
            ),
            LayerKind::ReLU => (
                1.8,
                MixSpec {
                    uops_per_us: 950.0,
                    load_frac: 0.22,
                    store_frac: 0.12,
                    l1_miss_rate: 0.03,
                    l2_miss_rate: 0.4,
                    llc_miss_rate: 0.3,
                    simd_frac: 0.5,
                    ..base
                },
            ),
            LayerKind::Dropout => (
                1.5,
                MixSpec {
                    uops_per_us: 800.0,
                    load_frac: 0.2,
                    store_frac: 0.1,
                    l1_miss_rate: 0.06,
                    l2_miss_rate: 0.5,
                    llc_miss_rate: 0.5,
                    ..base
                },
            ),
            LayerKind::Add => (
                1.5,
                MixSpec {
                    uops_per_us: 1_400.0,
                    load_frac: 0.35,
                    store_frac: 0.18,
                    l1_miss_rate: 0.06,
                    l2_miss_rate: 0.4,
                    llc_miss_rate: 0.3,
                    simd_frac: 0.55,
                    ..base
                },
            ),
            LayerKind::Concat => (
                1.7,
                MixSpec {
                    uops_per_us: 1_550.0,
                    load_frac: 0.3,
                    store_frac: 0.28,
                    l1_miss_rate: 0.09,
                    l2_miss_rate: 0.5,
                    llc_miss_rate: 0.5,
                    ..base
                },
            ),
            LayerKind::Gru => (
                3.5,
                MixSpec {
                    uops_per_us: 2_000.0,
                    load_frac: 0.32,
                    store_frac: 0.15,
                    l1_miss_rate: 0.12,
                    l2_miss_rate: 0.5,
                    llc_miss_rate: 0.5,
                    branch_frac: 0.2,
                    ..base
                },
            ),
            LayerKind::Attention => (
                5.0,
                MixSpec {
                    uops_per_us: 2_300.0,
                    load_frac: 0.34,
                    store_frac: 0.16,
                    l1_miss_rate: 0.1,
                    l2_miss_rate: 0.4,
                    llc_miss_rate: 0.35,
                    simd_frac: 0.6,
                    ..base
                },
            ),
            LayerKind::Embed => (
                2.5,
                MixSpec {
                    uops_per_us: 1_700.0,
                    load_frac: 0.42,
                    store_frac: 0.14,
                    l1_miss_rate: 0.2,
                    l2_miss_rate: 0.6,
                    llc_miss_rate: 0.7,
                    ..base
                },
            ),
            LayerKind::Softmax => (
                1.6,
                MixSpec {
                    uops_per_us: 1_100.0,
                    load_frac: 0.25,
                    store_frac: 0.12,
                    l1_miss_rate: 0.04,
                    l2_miss_rate: 0.4,
                    llc_miss_rate: 0.3,
                    fp_frac: 0.3,
                    ..base
                },
            ),
        }
    }
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One layer instance: a kind plus a size multiplier for its duration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    /// Layer type.
    pub kind: LayerKind,
    /// Relative size (scales duration).
    pub size: f64,
}

/// Span of one executed layer inside a sampled inference plan —
/// the attacker's sequence-learning ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerSpan {
    /// Layer type.
    pub kind: LayerKind,
    /// Start offset in the plan, nanoseconds.
    pub start_ns: u64,
    /// End offset in the plan, nanoseconds.
    pub end_ns: u64,
}

/// A named model architecture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelArch {
    /// Model name, e.g. `resnet50`.
    pub name: String,
    /// Layer sequence.
    pub layers: Vec<Layer>,
}

impl ModelArch {
    /// The layer-kind label sequence (the MEA prediction target `Y`).
    pub fn label_sequence(&self) -> Vec<LayerKind> {
        self.layers.iter().map(|l| l.kind).collect()
    }
}

impl Layer {
    /// Draws one execution's duration: the first of the layer's two
    /// draws in [`DnnZoo::sample_inference`].
    fn duration_ns(&self, rng: &mut StdRng) -> u64 {
        let (base_ms, _) = self.kind.template();
        let dur_ms = (base_ms * self.size * normal(rng, 1.0, 0.06).clamp(0.7, 1.3)).max(2.6);
        (dur_ms * 1e6) as u64
    }

    /// Draws one execution's activity rate: the second draw.
    fn rate(&self, rng: &mut StdRng) -> ActivityVector {
        let (_, mut mix) = self.kind.template();
        mix.uops_per_us *= normal(rng, 1.0, 0.04).clamp(0.8, 1.2);
        mix.build()
    }
}

/// Moves `rng` past one [`normal`] draw without computing it: the
/// Box–Muller draw takes exactly two words, with no rejection.
fn skip_normal(rng: &mut StdRng) {
    rng.next_u64();
    rng.next_u64();
}

fn layer(kind: LayerKind, size: f64) -> Layer {
    Layer { kind, size }
}

/// conv → bn → relu block.
fn conv_block(layers: &mut Vec<Layer>, size: f64) {
    layers.push(layer(LayerKind::Conv, size));
    layers.push(layer(LayerKind::BatchNorm, size * 0.5));
    layers.push(layer(LayerKind::ReLU, size * 0.3));
}

fn vgg(name: &str, stages: &[usize]) -> ModelArch {
    let mut layers = Vec::new();
    for (i, &convs) in stages.iter().enumerate() {
        let size = 0.6 + 0.35 * i as f64;
        for _ in 0..convs {
            layers.push(layer(LayerKind::Conv, size));
            layers.push(layer(LayerKind::ReLU, size * 0.3));
        }
        layers.push(layer(LayerKind::Pool, 0.5));
    }
    for _ in 0..2 {
        layers.push(layer(LayerKind::Fc, 2.0));
        layers.push(layer(LayerKind::ReLU, 0.4));
        layers.push(layer(LayerKind::Dropout, 0.3));
    }
    layers.push(layer(LayerKind::Fc, 1.0));
    layers.push(layer(LayerKind::Softmax, 0.3));
    ModelArch {
        name: name.to_string(),
        layers,
    }
}

fn resnet(name: &str, blocks: &[usize], bottleneck: bool) -> ModelArch {
    let mut layers = Vec::new();
    conv_block(&mut layers, 1.2);
    layers.push(layer(LayerKind::Pool, 0.5));
    for (stage, &n) in blocks.iter().enumerate() {
        let size = 0.5 + 0.3 * stage as f64;
        for _ in 0..n {
            let convs = if bottleneck { 3 } else { 2 };
            for _ in 0..convs {
                conv_block(&mut layers, size);
            }
            layers.push(layer(LayerKind::Add, 0.3));
        }
    }
    layers.push(layer(LayerKind::Pool, 0.4));
    layers.push(layer(LayerKind::Fc, 1.0));
    layers.push(layer(LayerKind::Softmax, 0.3));
    ModelArch {
        name: name.to_string(),
        layers,
    }
}

fn densenet(name: &str, blocks: &[usize]) -> ModelArch {
    let mut layers = Vec::new();
    conv_block(&mut layers, 1.0);
    layers.push(layer(LayerKind::Pool, 0.5));
    for (stage, &n) in blocks.iter().enumerate() {
        let size = 0.4 + 0.2 * stage as f64;
        for _ in 0..n {
            conv_block(&mut layers, size * 0.5);
            layers.push(layer(LayerKind::Concat, 0.3));
        }
        layers.push(layer(LayerKind::Pool, 0.3));
    }
    layers.push(layer(LayerKind::Fc, 1.0));
    layers.push(layer(LayerKind::Softmax, 0.3));
    ModelArch {
        name: name.to_string(),
        layers,
    }
}

fn mobile(name: &str, blocks: usize) -> ModelArch {
    let mut layers = Vec::new();
    conv_block(&mut layers, 0.8);
    for b in 0..blocks {
        let size = 0.3 + 0.05 * b as f64;
        conv_block(&mut layers, size); // depthwise
        conv_block(&mut layers, size * 0.7); // pointwise
        if b % 2 == 1 {
            layers.push(layer(LayerKind::Add, 0.2));
        }
    }
    layers.push(layer(LayerKind::Pool, 0.3));
    layers.push(layer(LayerKind::Fc, 0.8));
    layers.push(layer(LayerKind::Softmax, 0.3));
    ModelArch {
        name: name.to_string(),
        layers,
    }
}

fn transformer(name: &str, depth: usize, size: f64) -> ModelArch {
    let mut layers = Vec::new();
    layers.push(layer(LayerKind::Embed, 1.0));
    for _ in 0..depth {
        layers.push(layer(LayerKind::Attention, size));
        layers.push(layer(LayerKind::Add, 0.2));
        layers.push(layer(LayerKind::Fc, size * 0.8));
        layers.push(layer(LayerKind::ReLU, 0.2));
        layers.push(layer(LayerKind::Fc, size * 0.8));
        layers.push(layer(LayerKind::Add, 0.2));
    }
    layers.push(layer(LayerKind::Fc, 0.8));
    layers.push(layer(LayerKind::Softmax, 0.3));
    ModelArch {
        name: name.to_string(),
        layers,
    }
}

fn recurrent(name: &str, steps: usize) -> ModelArch {
    let mut layers = Vec::new();
    layers.push(layer(LayerKind::Embed, 0.8));
    for _ in 0..steps {
        layers.push(layer(LayerKind::Gru, 0.8));
    }
    layers.push(layer(LayerKind::Fc, 0.8));
    layers.push(layer(LayerKind::Softmax, 0.3));
    ModelArch {
        name: name.to_string(),
        layers,
    }
}

fn build_zoo() -> Vec<ModelArch> {
    vec![
        vgg("alexnet", &[1, 1, 1, 2]),
        vgg("vgg11", &[1, 1, 2, 2, 2]),
        vgg("vgg13", &[2, 2, 2, 2, 2]),
        vgg("vgg16", &[2, 2, 3, 3, 3]),
        vgg("vgg19", &[2, 2, 4, 4, 4]),
        resnet("resnet18", &[2, 2, 2, 2], false),
        resnet("resnet34", &[3, 4, 6, 3], false),
        resnet("resnet50", &[3, 4, 6, 3], true),
        resnet("resnet101", &[3, 4, 23, 3], true),
        resnet("resnet152", &[3, 8, 36, 3], true),
        resnet("resnext50_32x4d", &[3, 4, 6, 3], true),
        resnet("wide_resnet50_2", &[3, 4, 6, 3], true),
        densenet("densenet121", &[6, 12, 24, 16]),
        densenet("densenet169", &[6, 12, 32, 32]),
        densenet("densenet201", &[6, 12, 48, 32]),
        mobile("mobilenet_v2", 17),
        mobile("mobilenet_v3_small", 11),
        mobile("mobilenet_v3_large", 15),
        mobile("mnasnet1_0", 14),
        mobile("shufflenet_v2_x1_0", 16),
        mobile("squeezenet1_0", 8),
        mobile("squeezenet1_1", 7),
        mobile("efficientnet_b0", 16),
        mobile("efficientnet_b1", 23),
        mobile("efficientnet_b2", 26),
        densenet("inception_v3", &[3, 5, 2]),
        densenet("googlenet", &[2, 5, 2]),
        transformer("vit_b_16", 12, 1.0),
        transformer("swin_t", 12, 0.7),
        recurrent("gru_seq2seq", 24),
    ]
}

/// The zoo of 30 model architectures.
///
/// # Example
///
/// ```
/// use aegis_workloads::{DnnZoo, SecretApp};
///
/// let zoo = DnnZoo::new(7);
/// assert_eq!(zoo.n_secrets(), 30);
/// assert_eq!(zoo.secret_name(7), "resnet50");
/// ```
#[derive(Debug, Clone)]
pub struct DnnZoo {
    models: Vec<ModelArch>,
    window_ns: u64,
    #[allow(dead_code)]
    seed: u64,
}

impl DnnZoo {
    /// Builds the zoo; `seed` reserved for future size perturbations.
    pub fn new(seed: u64) -> Self {
        let models = build_zoo();
        debug_assert_eq!(models.len(), N_MODELS);
        DnnZoo {
            models,
            window_ns: 3_000_000_000,
            seed,
        }
    }

    /// Architecture of one model.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= N_MODELS`.
    pub fn model(&self, idx: usize) -> &ModelArch {
        &self.models[idx]
    }

    /// Samples one inference pass and returns its plan together with the
    /// executed layer spans (ground truth for sequence learning). Unlike
    /// [`SecretApp::sample_plan`], the plan covers exactly one inference
    /// (no window padding).
    pub fn sample_inference(
        &self,
        model: usize,
        rng: &mut StdRng,
    ) -> (WorkloadPlan, Vec<LayerSpan>) {
        let arch = &self.models[model];
        let mut plan = WorkloadPlan::new();
        let mut spans = Vec::with_capacity(arch.layers.len());
        let mut cursor = 0u64;
        for l in &arch.layers {
            let dur_ns = l.duration_ns(rng);
            plan.push(Segment::new(dur_ns, l.rate(rng)));
            spans.push(LayerSpan {
                kind: l.kind,
                start_ns: cursor,
                end_ns: cursor + dur_ns,
            });
            cursor += dur_ns;
        }
        (plan, spans)
    }
}

impl SecretApp for DnnZoo {
    fn name(&self) -> &str {
        "model-extraction"
    }

    fn n_secrets(&self) -> usize {
        N_MODELS
    }

    fn secret_name(&self, idx: usize) -> String {
        self.models[idx].name.clone()
    }

    fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// One monitoring window: inference repeated back-to-back until the
    /// window is full (the paper samples for 3 s while inference runs).
    fn sample_plan(&self, secret: usize, rng: &mut StdRng) -> WorkloadPlan {
        let mut plan = WorkloadPlan::new();
        while plan.duration_ns() < self.window_ns {
            let (pass, _) = self.sample_inference(secret, rng);
            plan.segments.extend(pass.segments);
        }
        plan.truncate_to(self.window_ns);
        plan
    }

    /// Two passes over the draws [`SecretApp::sample_plan`] makes. The
    /// first draws every layer's duration and skips its rate draw, which
    /// fixes the segment boundaries and leaves `rng` where `sample_plan`
    /// does. The second replays a copy of the generator and builds only
    /// the segments from the one running at the span start through the
    /// one starting at or after its end, truncated to the window like
    /// `sample_plan`'s. That last segment keeps the source from running
    /// dry at the span end where the full plan would not.
    fn sample_span(
        &self,
        secret: usize,
        rng: &mut StdRng,
        pick: &mut dyn FnMut(&mut StdRng) -> Range<u64>,
    ) -> (WorkloadPlan, u64) {
        let layers = &self.models[secret].layers;
        let mut replay = rng.clone();
        let mut durations = Vec::new();
        let mut total = 0u64;
        while total < self.window_ns {
            for l in layers {
                let dur_ns = l.duration_ns(rng);
                skip_normal(rng);
                durations.push(dur_ns);
                total += dur_ns;
            }
        }
        let span = pick(rng);

        let mut plan = WorkloadPlan::new();
        let mut skip_ns = 0;
        let mut start_ns = 0u64;
        for (&dur_ns, l) in durations.iter().zip(layers.iter().cycle()) {
            if start_ns >= self.window_ns {
                break;
            }
            skip_normal(&mut replay);
            if start_ns + dur_ns <= span.start {
                // Over before the span starts.
                skip_normal(&mut replay);
                start_ns += dur_ns;
                continue;
            }
            if plan.segments.is_empty() {
                skip_ns = span.start - start_ns;
            }
            let rate = l.rate(&mut replay);
            plan.push(Segment::new(dur_ns.min(self.window_ns - start_ns), rate));
            if start_ns >= span.end {
                break;
            }
            start_ns += dur_ns;
        }
        (plan, skip_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zoo_has_30_distinct_models() {
        let zoo = DnnZoo::new(1);
        assert_eq!(zoo.n_secrets(), 30);
        let mut names: Vec<_> = (0..30).map(|i| zoo.secret_name(i)).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 30);
    }

    #[test]
    fn label_sequences_are_distinct() {
        let zoo = DnnZoo::new(1);
        let mut seqs: Vec<Vec<LayerKind>> =
            (0..30).map(|i| zoo.model(i).label_sequence()).collect();
        seqs.sort();
        seqs.dedup();
        // A few families legitimately share a layer-kind sequence (e.g.
        // resnet50 / resnext50 / wide_resnet50 differ only in widths, as on
        // real hardware); most must still be distinct.
        assert!(seqs.len() >= 25, "only {} distinct sequences", seqs.len());
    }

    #[test]
    fn resnet50_deeper_than_resnet18() {
        let zoo = DnnZoo::new(1);
        let r18 = zoo.model(5).layers.len();
        let r50 = zoo.model(7).layers.len();
        assert!(r50 > r18);
    }

    #[test]
    fn spans_cover_the_pass_contiguously() {
        let zoo = DnnZoo::new(1);
        let mut rng = StdRng::seed_from_u64(3);
        let (plan, spans) = zoo.sample_inference(7, &mut rng);
        assert_eq!(spans.len(), zoo.model(7).layers.len());
        let mut cursor = 0;
        for s in &spans {
            assert_eq!(s.start_ns, cursor);
            assert!(s.end_ns > s.start_ns);
            cursor = s.end_ns;
        }
        assert_eq!(cursor, plan.duration_ns());
    }

    #[test]
    fn window_plan_fills_and_truncates() {
        let zoo = DnnZoo::new(1);
        let mut rng = StdRng::seed_from_u64(3);
        let plan = zoo.sample_plan(0, &mut rng);
        assert_eq!(plan.duration_ns(), zoo.window_ns());
    }

    #[test]
    fn layer_kind_indices_roundtrip() {
        for (i, k) in LayerKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn inference_durations_differ_across_models() {
        let zoo = DnnZoo::new(1);
        let mut rng = StdRng::seed_from_u64(5);
        let (p18, _) = zoo.sample_inference(5, &mut rng);
        let (p152, _) = zoo.sample_inference(9, &mut rng);
        assert!(p152.duration_ns() > 2 * p18.duration_ns());
    }
}
