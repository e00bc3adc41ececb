//! A one-hidden-layer perceptron with ReLU activation, trained by SGD.
//!
//! A slightly stronger learner than [`SoftmaxRegression`] for non-linear
//! boundaries; used by the robust-attacker scenario of Fig. 9b where the
//! adversary trains on noisy traces.
//!
//! The hot path ([`Mlp::train`]) runs on flat [`Mat`] weights with all
//! scratch (gradients, activations) allocated once per call and zeroed
//! per minibatch; [`Mlp::train_scalar`] keeps the original nested
//! `Vec<Vec<f64>>` implementation as the bit-identical reference the
//! property tests compare against.
//!
//! [`SoftmaxRegression`]: crate::SoftmaxRegression

use crate::dataset::Dataset;
use crate::mat::Mat;
use crate::softmax::{argmax, softmax, softmax_inplace};
use crate::train::{EpochStats, TrainingCurve};
use aegis_microarch::rand_util::normal;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

/// MLP hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Hidden layer width.
    pub hidden: usize,
    /// Number of epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// Minibatch size.
    pub batch_size: usize,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: 64,
            epochs: 40,
            lr: 0.02,
            batch_size: 32,
        }
    }
}

/// A trained multilayer perceptron (input → ReLU hidden → softmax).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    w1: Mat, // [hidden][dim]
    b1: Vec<f64>,
    w2: Mat, // [class][hidden]
    b2: Vec<f64>,
    dim: usize,
}

impl Mlp {
    /// Trains on `train`, evaluating on `val` after each epoch.
    ///
    /// Bit-identical to [`Mlp::train_scalar`] for the same RNG seed: the
    /// per-sample accumulation order is unchanged, only the storage is
    /// flat and the scratch buffers are reused across batches.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty.
    pub fn train(
        train: &Dataset,
        val: &Dataset,
        cfg: MlpConfig,
        rng: &mut StdRng,
    ) -> (Self, TrainingCurve) {
        assert!(!train.is_empty(), "empty training set");
        let dim = train.dim();
        let k = train.n_classes;
        let h = cfg.hidden.max(1);
        let s1 = (2.0 / dim as f64).sqrt();
        let s2 = (2.0 / h as f64).sqrt();
        let mut m = Mlp {
            w1: init_normal(h, dim, s1, rng),
            b1: vec![0.0; h],
            w2: init_normal(k, h, s2, rng),
            b2: vec![0.0; k],
            dim,
        };
        let mut curve = TrainingCurve::new();
        let mut order: Vec<usize> = (0..train.len()).collect();
        // Scratch shared by every minibatch of every epoch: gradients plus
        // the forward/backward activations of the sample being processed.
        let mut gw1 = Mat::zeros(h, dim);
        let mut gb1 = vec![0.0; h];
        let mut gw2 = Mat::zeros(k, h);
        let mut gb2 = vec![0.0; k];
        let mut hidden = vec![0.0; h];
        let mut p = vec![0.0; k];
        let mut dh = vec![0.0; h];
        for epoch in 0..cfg.epochs {
            order.shuffle(rng);
            let mut loss_acc = 0.0;
            let mut correct = 0usize;
            for batch in order.chunks(cfg.batch_size.max(1)) {
                gw1.fill_zero();
                gb1.fill(0.0);
                gw2.fill_zero();
                gb2.fill(0.0);
                for &i in batch {
                    let x = train.samples.row(i);
                    let y = train.labels[i];
                    // Fused forward into scratch.
                    for (j, hj) in hidden.iter_mut().enumerate() {
                        let dot: f64 = m.w1.row(j).iter().zip(x).map(|(wi, xi)| wi * xi).sum();
                        *hj = (dot + m.b1[j]).max(0.0);
                    }
                    for (c, pc) in p.iter_mut().enumerate() {
                        *pc =
                            m.w2.row(c)
                                .iter()
                                .zip(&hidden)
                                .map(|(wi, hi)| wi * hi)
                                .sum::<f64>()
                                + m.b2[c];
                    }
                    softmax_inplace(&mut p);
                    loss_acc += -(p[y].max(1e-12)).ln();
                    if argmax(&p) == y {
                        correct += 1;
                    }
                    // Output layer gradient.
                    dh.fill(0.0);
                    for c in 0..k {
                        let err = p[c] - f64::from(c == y);
                        let w2c = m.w2.row(c);
                        for (j, (g, hj)) in gw2.row_mut(c).iter_mut().zip(&hidden).enumerate() {
                            *g += err * hj;
                            dh[j] += err * w2c[j];
                        }
                        gb2[c] += err;
                    }
                    // Hidden layer gradient (ReLU mask).
                    for j in 0..h {
                        if hidden[j] <= 0.0 {
                            continue;
                        }
                        for (g, xi) in gw1.row_mut(j).iter_mut().zip(x) {
                            *g += dh[j] * xi;
                        }
                        gb1[j] += dh[j];
                    }
                }
                let scale = cfg.lr / batch.len() as f64;
                for (j, (b, gb)) in m.b1.iter_mut().zip(&gb1).enumerate() {
                    for (w, g) in m.w1.row_mut(j).iter_mut().zip(gw1.row(j)) {
                        *w -= scale * g;
                    }
                    *b -= scale * gb;
                }
                for (c, (b, gb)) in m.b2.iter_mut().zip(&gb2).enumerate() {
                    for (w, g) in m.w2.row_mut(c).iter_mut().zip(gw2.row(c)) {
                        *w -= scale * g;
                    }
                    *b -= scale * gb;
                }
            }
            curve.push(EpochStats {
                epoch,
                train_loss: loss_acc / train.len() as f64,
                train_acc: correct as f64 / train.len() as f64,
                val_acc: m.accuracy(val),
            });
        }
        (m, curve)
    }

    /// The original nested-`Vec` training loop, kept verbatim as the
    /// reference implementation for the flat↔scalar property tests.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty.
    pub fn train_scalar(
        train: &Dataset,
        val: &Dataset,
        cfg: MlpConfig,
        rng: &mut StdRng,
    ) -> (Self, TrainingCurve) {
        assert!(!train.is_empty(), "empty training set");
        let dim = train.dim();
        let k = train.n_classes;
        let h = cfg.hidden.max(1);
        let s1 = (2.0 / dim as f64).sqrt();
        let s2 = (2.0 / h as f64).sqrt();
        let mut w1: Vec<Vec<f64>> = (0..h)
            .map(|_| (0..dim).map(|_| normal(rng, 0.0, s1)).collect())
            .collect();
        let mut b1 = vec![0.0; h];
        let mut w2: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..h).map(|_| normal(rng, 0.0, s2)).collect())
            .collect();
        let mut b2 = vec![0.0; k];
        let forward = |w1: &[Vec<f64>],
                       b1: &[f64],
                       w2: &[Vec<f64>],
                       b2: &[f64],
                       x: &[f64]|
         -> (Vec<f64>, Vec<f64>) {
            let hidden: Vec<f64> = w1
                .iter()
                .zip(b1)
                .map(|(w, b)| (w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + b).max(0.0))
                .collect();
            let logits: Vec<f64> = w2
                .iter()
                .zip(b2)
                .map(|(w, b)| w.iter().zip(&hidden).map(|(wi, hi)| wi * hi).sum::<f64>() + b)
                .collect();
            let p = softmax(&logits);
            (hidden, p)
        };
        let mut curve = TrainingCurve::new();
        let mut order: Vec<usize> = (0..train.len()).collect();
        for epoch in 0..cfg.epochs {
            order.shuffle(rng);
            let mut loss_acc = 0.0;
            let mut correct = 0usize;
            for batch in order.chunks(cfg.batch_size.max(1)) {
                let mut gw1 = vec![vec![0.0; dim]; h];
                let mut gb1 = vec![0.0; h];
                let mut gw2 = vec![vec![0.0; h]; k];
                let mut gb2 = vec![0.0; k];
                for &i in batch {
                    let x = &train.samples[i];
                    let y = train.labels[i];
                    let (hidden, p) = forward(&w1, &b1, &w2, &b2, x);
                    loss_acc += -(p[y].max(1e-12)).ln();
                    if argmax(&p) == y {
                        correct += 1;
                    }
                    // Output layer gradient.
                    let mut dh = vec![0.0; h];
                    for c in 0..k {
                        let err = p[c] - f64::from(c == y);
                        for (j, (g, hj)) in gw2[c].iter_mut().zip(&hidden).enumerate() {
                            *g += err * hj;
                            dh[j] += err * w2[c][j];
                        }
                        gb2[c] += err;
                    }
                    // Hidden layer gradient (ReLU mask).
                    for j in 0..h {
                        if hidden[j] <= 0.0 {
                            continue;
                        }
                        for (g, xi) in gw1[j].iter_mut().zip(x) {
                            *g += dh[j] * xi;
                        }
                        gb1[j] += dh[j];
                    }
                }
                let scale = cfg.lr / batch.len() as f64;
                for j in 0..h {
                    for (w, g) in w1[j].iter_mut().zip(&gw1[j]) {
                        *w -= scale * g;
                    }
                    b1[j] -= scale * gb1[j];
                }
                for c in 0..k {
                    for (w, g) in w2[c].iter_mut().zip(&gw2[c]) {
                        *w -= scale * g;
                    }
                    b2[c] -= scale * gb2[c];
                }
            }
            let m = Mlp {
                w1: Mat::from_rows(&w1),
                b1: b1.clone(),
                w2: Mat::from_rows(&w2),
                b2: b2.clone(),
                dim,
            };
            curve.push(EpochStats {
                epoch,
                train_loss: loss_acc / train.len() as f64,
                train_acc: correct as f64 / train.len() as f64,
                val_acc: m.accuracy(val),
            });
        }
        let m = Mlp {
            w1: Mat::from_rows(&w1),
            b1,
            w2: Mat::from_rows(&w2),
            b2,
            dim,
        };
        (m, curve)
    }

    fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let hidden: Vec<f64> = self
            .w1
            .iter()
            .zip(&self.b1)
            .map(|(w, b)| (w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + b).max(0.0))
            .collect();
        let logits: Vec<f64> = self
            .w2
            .iter()
            .zip(&self.b2)
            .map(|(w, b)| w.iter().zip(&hidden).map(|(wi, hi)| wi * hi).sum::<f64>() + b)
            .collect();
        let p = softmax(&logits);
        (hidden, p)
    }

    /// Class probabilities for one sample.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn probabilities(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "dimension mismatch");
        self.forward(x).1
    }

    /// Predicted class.
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn learns_xor_which_softmax_cannot() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ds = Dataset::new(vec![], vec![], 2);
        for _ in 0..300 {
            for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
                let label = usize::from((a > 0.5) != (b > 0.5));
                ds.push(
                    vec![normal(&mut rng, a, 0.1), normal(&mut rng, b, 0.1)],
                    label,
                );
            }
        }
        let (train, val) = ds.split(0.7, &mut rng);
        let cfg = MlpConfig {
            hidden: 16,
            epochs: 60,
            lr: 0.1,
            batch_size: 16,
        };
        let (mlp, curve) = Mlp::train(&train, &val, cfg, &mut rng);
        assert!(curve.final_val_acc() > 0.95, "{}", curve.final_val_acc());
        assert_eq!(mlp.predict(&[0.0, 0.0]), 0);
        assert_eq!(mlp.predict(&[1.0, 0.0]), 1);
    }

    #[test]
    fn probabilities_normalized() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ds = Dataset::new(vec![], vec![], 3);
        for i in 0..30 {
            ds.push(vec![i as f64, -(i as f64)], i % 3);
        }
        let (train, val) = ds.split(0.7, &mut rng);
        let cfg = MlpConfig {
            epochs: 2,
            ..MlpConfig::default()
        };
        let (mlp, _) = Mlp::train(&train, &val, cfg, &mut rng);
        let p = mlp.probabilities(&[1.0, 2.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flat_matches_scalar_reference() {
        let mut ds = Dataset::new(vec![], vec![], 3);
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..60 {
            ds.push(
                vec![
                    normal(&mut rng, i as f64 % 3.0, 0.4),
                    normal(&mut rng, 0.0, 1.0),
                ],
                i % 3,
            );
        }
        let (train, val) = ds.split(0.7, &mut rng);
        let cfg = MlpConfig {
            hidden: 8,
            epochs: 5,
            lr: 0.05,
            batch_size: 8,
        };
        let (flat, curve_f) = Mlp::train(&train, &val, cfg, &mut StdRng::seed_from_u64(42));
        let (scalar, curve_s) =
            Mlp::train_scalar(&train, &val, cfg, &mut StdRng::seed_from_u64(42));
        assert_eq!(flat, scalar);
        assert_eq!(curve_f, curve_s);
    }
}
