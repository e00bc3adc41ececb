//! Multinomial logistic (softmax) regression trained with minibatch SGD.
//!
//! Stands in for the paper's CNN classifier in the website-fingerprinting
//! and keystroke-sniffing attacks: the defense's claim is information-
//! theoretic, so any learner that reaches ≳90% accuracy on the clean
//! channel demonstrates the same accuracy collapse under DP noise.
//!
//! The hot path ([`SoftmaxRegression::train`]) runs on a flat [`Mat`]
//! weight block with gradient and probability scratch reused across
//! minibatches; [`SoftmaxRegression::train_scalar`] keeps the nested
//! `Vec<Vec<f64>>` loop as the bit-identical property-test reference.

use crate::dataset::Dataset;
use crate::mat::Mat;
use crate::train::{EpochStats, TrainingCurve};
use aegis_microarch::rand_util::normal;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

/// SGD hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// Minibatch size.
    pub batch_size: usize,
    /// L2 regularization strength.
    pub l2: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 60,
            lr: 0.02,
            batch_size: 16,
            l2: 1e-4,
        }
    }
}

/// A trained softmax-regression classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoftmaxRegression {
    w: Mat, // [class][dim]
    b: Vec<f64>,
    dim: usize,
}

impl SoftmaxRegression {
    /// Trains on `train`, evaluating on `val` after each epoch.
    ///
    /// Bit-identical to [`SoftmaxRegression::train_scalar`] for the same
    /// RNG seed: the accumulation order is unchanged, only storage is
    /// flat and scratch is reused across batches.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty or dimensions are inconsistent.
    pub fn train(
        train: &Dataset,
        val: &Dataset,
        cfg: TrainConfig,
        rng: &mut StdRng,
    ) -> (Self, TrainingCurve) {
        assert!(!train.is_empty(), "empty training set");
        let dim = train.dim();
        let k = train.n_classes;
        let mut model = SoftmaxRegression {
            w: init_normal(k, dim, 0.01, rng),
            b: vec![0.0; k],
            dim,
        };
        let mut curve = TrainingCurve::new();
        let mut order: Vec<usize> = (0..train.len()).collect();
        // Adam optimizer state (first/second moments per parameter).
        let mut adam = AdamState::new(k, dim);
        // Per-call scratch, zeroed per batch / per sample instead of
        // reallocated.
        let mut grad_w = Mat::zeros(k, dim);
        let mut grad_b = vec![0.0; k];
        let mut p = vec![0.0; k];
        for epoch in 0..cfg.epochs {
            order.shuffle(rng);
            let mut loss_acc = 0.0;
            let mut correct = 0usize;
            for batch in order.chunks(cfg.batch_size.max(1)) {
                grad_w.fill_zero();
                grad_b.fill(0.0);
                for &i in batch {
                    let x = train.samples.row(i);
                    let y = train.labels[i];
                    for (c, pc) in p.iter_mut().enumerate() {
                        *pc = model
                            .w
                            .row(c)
                            .iter()
                            .zip(x)
                            .map(|(wi, xi)| wi * xi)
                            .sum::<f64>()
                            + model.b[c];
                    }
                    softmax_inplace(&mut p);
                    loss_acc += -(p[y].max(1e-12)).ln();
                    if argmax(&p) == y {
                        correct += 1;
                    }
                    for c in 0..k {
                        let err = p[c] - f64::from(c == y);
                        for (g, xi) in grad_w.row_mut(c).iter_mut().zip(x) {
                            *g += err * xi;
                        }
                        grad_b[c] += err;
                    }
                }
                let inv = 1.0 / batch.len() as f64;
                for (c, gb) in grad_b.iter_mut().enumerate() {
                    for g in grad_w.row_mut(c) {
                        *g *= inv;
                    }
                    *gb *= inv;
                    let wc = model.w.row(c);
                    for (g, w) in grad_w.row_mut(c).iter_mut().zip(wc) {
                        *g += cfg.l2 * w;
                    }
                }
                adam.step(cfg.lr, &grad_w, &grad_b, &mut model.w, &mut model.b);
            }
            curve.push(EpochStats {
                epoch,
                train_loss: loss_acc / train.len() as f64,
                train_acc: correct as f64 / train.len() as f64,
                val_acc: model.accuracy(val),
            });
        }
        (model, curve)
    }

    /// The original nested-`Vec` training loop, kept verbatim as the
    /// reference implementation for the flat↔scalar property tests.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty or dimensions are inconsistent.
    pub fn train_scalar(
        train: &Dataset,
        val: &Dataset,
        cfg: TrainConfig,
        rng: &mut StdRng,
    ) -> (Self, TrainingCurve) {
        assert!(!train.is_empty(), "empty training set");
        let dim = train.dim();
        let k = train.n_classes;
        let mut w: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..dim).map(|_| normal(rng, 0.0, 0.01)).collect())
            .collect();
        let mut b = vec![0.0; k];
        let probabilities = |w: &[Vec<f64>], b: &[f64], x: &[f64]| -> Vec<f64> {
            let logits: Vec<f64> = w
                .iter()
                .zip(b)
                .map(|(w, b)| w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + b)
                .collect();
            softmax(&logits)
        };
        let mut curve = TrainingCurve::new();
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut adam = AdamScalar::new(k, dim);
        for epoch in 0..cfg.epochs {
            order.shuffle(rng);
            let mut loss_acc = 0.0;
            let mut correct = 0usize;
            for batch in order.chunks(cfg.batch_size.max(1)) {
                let mut grad_w = vec![vec![0.0; dim]; k];
                let mut grad_b = vec![0.0; k];
                for &i in batch {
                    let x = &train.samples[i];
                    let y = train.labels[i];
                    let p = probabilities(&w, &b, x);
                    loss_acc += -(p[y].max(1e-12)).ln();
                    if argmax(&p) == y {
                        correct += 1;
                    }
                    for c in 0..k {
                        let err = p[c] - f64::from(c == y);
                        for (g, xi) in grad_w[c].iter_mut().zip(x) {
                            *g += err * xi;
                        }
                        grad_b[c] += err;
                    }
                }
                let inv = 1.0 / batch.len() as f64;
                for c in 0..k {
                    for g in &mut grad_w[c] {
                        *g *= inv;
                    }
                    grad_b[c] *= inv;
                    for (j, wj) in w[c].iter_mut().enumerate() {
                        grad_w[c][j] += cfg.l2 * *wj;
                    }
                }
                adam.step(cfg.lr, &grad_w, &grad_b, &mut w, &mut b);
            }
            let model = SoftmaxRegression {
                w: Mat::from_rows(&w),
                b: b.clone(),
                dim,
            };
            curve.push(EpochStats {
                epoch,
                train_loss: loss_acc / train.len() as f64,
                train_acc: correct as f64 / train.len() as f64,
                val_acc: model.accuracy(val),
            });
        }
        let model = SoftmaxRegression {
            w: Mat::from_rows(&w),
            b,
            dim,
        };
        (model, curve)
    }

    /// Class probabilities for one sample.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn probabilities(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "dimension mismatch");
        let logits: Vec<f64> = self
            .w
            .iter()
            .zip(&self.b)
            .map(|(w, b)| w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + b)
            .collect();
        softmax(&logits)
    }

    /// Predicted class for one sample.
    pub fn predict(&self, x: &[f64]) -> usize {
        argmax(&self.probabilities(x))
    }

    /// Accuracy over a dataset (0 if empty).
    pub fn accuracy(&self, ds: &Dataset) -> f64 {
        if ds.is_empty() {
            return 0.0;
        }
        let correct = ds
            .samples
            .iter()
            .zip(&ds.labels)
            .filter(|(x, &y)| self.predict(x) == y)
            .count();
        correct as f64 / ds.len() as f64
    }
}

/// Draws a `rows × cols` matrix of `N(0, s²)` entries in row-major order —
/// the same RNG consumption order as the nested initializer it replaces.
fn init_normal(rows: usize, cols: usize, s: f64, rng: &mut StdRng) -> Mat {
    let mut m = Mat::with_capacity(rows, cols);
    let mut row = vec![0.0; cols];
    for _ in 0..rows {
        for w in &mut row {
            *w = normal(rng, 0.0, s);
        }
        m.push_row(&row);
    }
    m
}

const BETA1: f64 = 0.9;
const BETA2: f64 = 0.999;
const ADAM_EPS: f64 = 1e-8;

/// Adam optimizer state over the flat `[class][dim]` weights and biases.
#[derive(Debug, Clone)]
pub(crate) struct AdamState {
    m_w: Mat,
    v_w: Mat,
    m_b: Vec<f64>,
    v_b: Vec<f64>,
    t: u64,
}

impl AdamState {
    pub(crate) fn new(k: usize, dim: usize) -> Self {
        AdamState {
            m_w: Mat::zeros(k, dim),
            v_w: Mat::zeros(k, dim),
            m_b: vec![0.0; k],
            v_b: vec![0.0; k],
            t: 0,
        }
    }

    pub(crate) fn step(
        &mut self,
        lr: f64,
        grad_w: &Mat,
        grad_b: &[f64],
        w: &mut Mat,
        b: &mut [f64],
    ) {
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        for c in 0..w.rows() {
            let (gw, wc) = (grad_w.row(c), w.row_mut(c));
            let (mw, vw) = (self.m_w.row_mut(c), self.v_w.row_mut(c));
            for j in 0..wc.len() {
                let g = gw[j];
                let m = &mut mw[j];
                let v = &mut vw[j];
                *m = BETA1 * *m + (1.0 - BETA1) * g;
                *v = BETA2 * *v + (1.0 - BETA2) * g * g;
                wc[j] -= lr * (*m / bc1) / ((*v / bc2).sqrt() + ADAM_EPS);
            }
            let g = grad_b[c];
            let m = &mut self.m_b[c];
            let v = &mut self.v_b[c];
            *m = BETA1 * *m + (1.0 - BETA1) * g;
            *v = BETA2 * *v + (1.0 - BETA2) * g * g;
            b[c] -= lr * (*m / bc1) / ((*v / bc2).sqrt() + ADAM_EPS);
        }
    }
}

/// The nested-`Vec` Adam loop used only by [`SoftmaxRegression::train_scalar`].
#[derive(Debug, Clone)]
struct AdamScalar {
    m_w: Vec<Vec<f64>>,
    v_w: Vec<Vec<f64>>,
    m_b: Vec<f64>,
    v_b: Vec<f64>,
    t: u64,
}

impl AdamScalar {
    fn new(k: usize, dim: usize) -> Self {
        AdamScalar {
            m_w: vec![vec![0.0; dim]; k],
            v_w: vec![vec![0.0; dim]; k],
            m_b: vec![0.0; k],
            v_b: vec![0.0; k],
            t: 0,
        }
    }

    fn step(
        &mut self,
        lr: f64,
        grad_w: &[Vec<f64>],
        grad_b: &[f64],
        w: &mut [Vec<f64>],
        b: &mut [f64],
    ) {
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        for c in 0..w.len() {
            for j in 0..w[c].len() {
                let g = grad_w[c][j];
                let m = &mut self.m_w[c][j];
                let v = &mut self.v_w[c][j];
                *m = BETA1 * *m + (1.0 - BETA1) * g;
                *v = BETA2 * *v + (1.0 - BETA2) * g * g;
                w[c][j] -= lr * (*m / bc1) / ((*v / bc2).sqrt() + ADAM_EPS);
            }
            let g = grad_b[c];
            let m = &mut self.m_b[c];
            let v = &mut self.v_b[c];
            *m = BETA1 * *m + (1.0 - BETA1) * g;
            *v = BETA2 * *v + (1.0 - BETA2) * g * g;
            b[c] -= lr * (*m / bc1) / ((*v / bc2).sqrt() + ADAM_EPS);
        }
    }
}

/// Numerically stable softmax.
pub(crate) fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|e| e / sum).collect()
}

/// Numerically stable softmax computed in place over a logits buffer.
///
/// Same arithmetic, same order as [`softmax`] — exponentials in index
/// order, one left-to-right sum, then the division — so the results are
/// bit-identical; it just reuses the caller's buffer.
pub(crate) fn softmax_inplace(logits: &mut [f64]) {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for l in logits.iter_mut() {
        *l = (*l - max).exp();
    }
    let sum: f64 = logits.iter().sum();
    for l in logits.iter_mut() {
        *l /= sum;
    }
}

/// Index of the maximum element (first on ties, 0 when empty).
pub(crate) fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn gaussian_blobs(n_per: usize, rng: &mut StdRng) -> Dataset {
        let centers = [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]];
        let mut ds = Dataset::new(vec![], vec![], 3);
        for (label, c) in centers.iter().enumerate() {
            for _ in 0..n_per {
                ds.push(vec![normal(rng, c[0], 0.6), normal(rng, c[1], 0.6)], label);
            }
        }
        ds
    }

    #[test]
    fn learns_separable_blobs() {
        let mut rng = StdRng::seed_from_u64(1);
        let ds = gaussian_blobs(200, &mut rng);
        let (train, val) = ds.split(0.7, &mut rng);
        let (model, curve) =
            SoftmaxRegression::train(&train, &val, TrainConfig::default(), &mut rng);
        assert!(curve.final_val_acc() > 0.95, "{}", curve.final_val_acc());
        assert!(model.accuracy(&val) > 0.95);
    }

    #[test]
    fn loss_decreases_over_training() {
        let mut rng = StdRng::seed_from_u64(2);
        let ds = gaussian_blobs(100, &mut rng);
        let (train, val) = ds.split(0.7, &mut rng);
        let (_, curve) = SoftmaxRegression::train(&train, &val, TrainConfig::default(), &mut rng);
        let first = curve.epochs.first().unwrap().train_loss;
        let last = curve.epochs.last().unwrap().train_loss;
        assert!(last < first * 0.5, "first {first} last {last}");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let ds = gaussian_blobs(30, &mut rng);
        let (train, val) = ds.split(0.8, &mut rng);
        let cfg = TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        };
        let (model, _) = SoftmaxRegression::train(&train, &val, cfg, &mut rng);
        let p = model.probabilities(&[1.0, 1.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn random_labels_stay_near_chance() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(4);
        let mut ds = Dataset::new(vec![], vec![], 4);
        for _ in 0..400 {
            ds.push(
                vec![normal(&mut rng, 0.0, 1.0), normal(&mut rng, 0.0, 1.0)],
                rng.gen_range(0..4),
            );
        }
        let (train, val) = ds.split(0.7, &mut rng);
        let (_, curve) = SoftmaxRegression::train(&train, &val, TrainConfig::default(), &mut rng);
        assert!(curve.final_val_acc() < 0.45, "{}", curve.final_val_acc());
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn softmax_inplace_bit_matches_allocating_softmax() {
        let logits = vec![-3.25, 0.0, 1.5, 700.0, -700.0];
        let reference = softmax(&logits);
        let mut buf = logits;
        softmax_inplace(&mut buf);
        assert_eq!(buf, reference);
    }

    #[test]
    fn argmax_ties_take_first() {
        assert_eq!(argmax(&[1.0, 1.0, 0.0]), 0);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn flat_matches_scalar_reference() {
        let mut rng = StdRng::seed_from_u64(9);
        let ds = gaussian_blobs(40, &mut rng);
        let (train, val) = ds.split(0.7, &mut rng);
        let cfg = TrainConfig {
            epochs: 6,
            ..TrainConfig::default()
        };
        let (flat, curve_f) =
            SoftmaxRegression::train(&train, &val, cfg, &mut StdRng::seed_from_u64(42));
        let (scalar, curve_s) =
            SoftmaxRegression::train_scalar(&train, &val, cfg, &mut StdRng::seed_from_u64(42));
        assert_eq!(flat, scalar);
        assert_eq!(curve_f, curve_s);
    }
}
