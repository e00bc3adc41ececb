//! Gaussian class-conditional classifier (diagonal LDA / naive Bayes).
//!
//! The paper models per-secret HPC feature values as univariate Gaussians
//! (Section V-B); the matching attacker fits exactly that generative
//! model: per-class feature means with pooled per-dimension variances,
//! predicting by maximum posterior. On the simulated channel this learner
//! reaches the paper's ≳90% clean accuracies where a small
//! softmax/MLP underfits the ordinal keystroke-counting task, and it
//! collapses identically under DP noise — which is the property the
//! defense evaluation needs.

use crate::dataset::Dataset;
use crate::mat::Mat;
use aegis_par::store::usize_from_u64;
use aegis_par::{ColumnFrame, ColumnSchema, Columnar, FrameError, FrameReader};
use serde::{Deserialize, Serialize};

/// A fitted Gaussian class-conditional classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaussianNb {
    /// Per-class feature means, `[class][dim]`.
    means: Mat,
    /// Pooled within-class variance per dimension.
    pooled_var: Vec<f64>,
    /// Log prior per class.
    log_prior: Vec<f64>,
    dim: usize,
}

impl GaussianNb {
    /// Fits the model.
    ///
    /// Classes absent from `train` receive the global mean and a −∞-free
    /// prior floor, so they are effectively never predicted.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty.
    pub fn fit(train: &Dataset) -> Self {
        assert!(!train.is_empty(), "empty training set");
        let dim = train.dim();
        let k = train.n_classes;
        let mut counts = vec![0usize; k];
        let mut means = Mat::zeros(k, dim);
        for (x, &y) in train.samples.iter().zip(&train.labels) {
            counts[y] += 1;
            for (m, xi) in means.row_mut(y).iter_mut().zip(x) {
                *m += xi;
            }
        }
        let global_mean: Vec<f64> = {
            let mut g = vec![0.0; dim];
            for x in &train.samples {
                for (gi, xi) in g.iter_mut().zip(x) {
                    *gi += xi / train.len() as f64;
                }
            }
            g
        };
        for (c, m) in means.iter_mut().enumerate() {
            if counts[c] == 0 {
                m.copy_from_slice(&global_mean);
            } else {
                for mi in m.iter_mut() {
                    *mi /= counts[c] as f64;
                }
            }
        }
        // Pooled within-class variance per dimension.
        let mut pooled_var = vec![0.0; dim];
        for (x, &y) in train.samples.iter().zip(&train.labels) {
            for ((v, xi), m) in pooled_var.iter_mut().zip(x).zip(means.row(y)) {
                *v += (xi - m).powi(2);
            }
        }
        for v in &mut pooled_var {
            *v = (*v / train.len() as f64).max(1e-12);
        }
        let log_prior: Vec<f64> = counts
            .iter()
            .map(|&c| {
                if c == 0 {
                    // Unseen classes must never win a posterior comparison.
                    f64::MIN / 2.0
                } else {
                    (c as f64 / train.len() as f64).ln()
                }
            })
            .collect();
        GaussianNb {
            means,
            pooled_var,
            log_prior,
            dim,
        }
    }

    /// Unnormalized log posterior per class.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn log_posteriors(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "dimension mismatch");
        self.means
            .iter()
            .zip(&self.log_prior)
            .map(|(m, lp)| {
                let mut ll = *lp;
                for ((xi, mi), v) in x.iter().zip(m).zip(&self.pooled_var) {
                    ll -= (xi - mi).powi(2) / (2.0 * v);
                }
                ll
            })
            .collect()
    }

    /// Predicted class.
    pub fn predict(&self, x: &[f64]) -> usize {
        let post = self.log_posteriors(x);
        let mut best = 0;
        for (i, &p) in post.iter().enumerate().skip(1) {
            if p > post[best] {
                best = i;
            }
        }
        best
    }

    /// Accuracy over a dataset (0 when empty).
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

    /// Mean negative log-likelihood of the true class (a cross-entropy
    /// analogue for training curves); 0 when empty.
    pub fn mean_nll(&self, ds: &Dataset) -> f64 {
        if ds.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0;
        for (x, &y) in ds.samples.iter().zip(&ds.labels) {
            let post = self.log_posteriors(x);
            // log-softmax over posteriors.
            let max = post.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let lse = max + post.iter().map(|&p| (p - max).exp()).sum::<f64>().ln();
            acc += lse - post[y];
        }
        acc / ds.len() as f64
    }
}

impl Columnar for GaussianNb {
    fn schema() -> ColumnSchema {
        ColumnSchema::new("attack/gaussian-nb", 1)
    }

    fn encode_columns(&self, frame: &mut ColumnFrame) {
        self.means.encode_columns(frame);
        frame.push_f64(self.pooled_var.clone());
        frame.push_f64(self.log_prior.clone());
        frame.push_u64(vec![self.dim as u64]);
    }

    fn decode_columns(reader: &mut FrameReader) -> Result<Self, FrameError> {
        let means = Mat::decode_columns(reader)?;
        let pooled_var = reader.f64s()?;
        let log_prior = reader.f64s()?;
        let tail = reader.u64s()?;
        let [dim] = tail[..] else {
            return Err(FrameError::new("nb dim column malformed"));
        };
        let dim = usize_from_u64(dim, "nb dim")?;
        if means.cols() != dim || pooled_var.len() != dim || log_prior.len() != means.rows() {
            return Err(FrameError::new("nb component dimensions disagree"));
        }
        Ok(GaussianNb {
            means,
            pooled_var,
            log_prior,
            dim,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegis_microarch::rand_util::normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ordinal_dataset(n_per: usize, noise_dims: usize, rng: &mut StdRng) -> Dataset {
        let mut ds = Dataset::new(vec![], vec![], 10);
        for _ in 0..n_per {
            for c in 0..10usize {
                let mut x = vec![normal(rng, c as f64, 0.05)];
                for _ in 0..noise_dims {
                    x.push(normal(rng, 0.0, 1.0));
                }
                ds.push(x, c);
            }
        }
        ds
    }

    #[test]
    fn solves_the_ordinal_task_softmax_struggles_with() {
        let mut rng = StdRng::seed_from_u64(1);
        let ds = ordinal_dataset(16, 27, &mut rng);
        let (train, val) = ds.split(0.7, &mut rng);
        let nb = GaussianNb::fit(&train);
        assert!(nb.accuracy(&val) > 0.9, "{}", nb.accuracy(&val));
    }

    #[test]
    fn respects_class_priors() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ds = Dataset::new(vec![], vec![], 2);
        // Overlapping classes, 9:1 prior.
        for _ in 0..900 {
            ds.push(vec![normal(&mut rng, 0.0, 1.0)], 0);
        }
        for _ in 0..100 {
            ds.push(vec![normal(&mut rng, 0.5, 1.0)], 1);
        }
        let nb = GaussianNb::fit(&ds);
        // A mildly class-1-looking point is still called class 0.
        assert_eq!(nb.predict(&[0.4]), 0);
    }

    #[test]
    fn nll_decreases_with_separation() {
        let mut rng = StdRng::seed_from_u64(3);
        let close = {
            let mut ds = Dataset::new(vec![], vec![], 2);
            for _ in 0..200 {
                ds.push(vec![normal(&mut rng, 0.0, 1.0)], 0);
                ds.push(vec![normal(&mut rng, 0.5, 1.0)], 1);
            }
            ds
        };
        let far = {
            let mut ds = Dataset::new(vec![], vec![], 2);
            for _ in 0..200 {
                ds.push(vec![normal(&mut rng, 0.0, 1.0)], 0);
                ds.push(vec![normal(&mut rng, 10.0, 1.0)], 1);
            }
            ds
        };
        let nb_close = GaussianNb::fit(&close);
        let nb_far = GaussianNb::fit(&far);
        assert!(nb_far.mean_nll(&far) < nb_close.mean_nll(&close));
    }

    #[test]
    fn unseen_classes_are_never_predicted() {
        let ds = Dataset::new(vec![vec![0.0], vec![1.0]], vec![0, 1], 3);
        let nb = GaussianNb::fit(&ds);
        for x in [-5.0, 0.0, 0.5, 1.0, 5.0] {
            assert_ne!(nb.predict(&[x]), 2);
        }
    }

    #[test]
    fn random_features_stay_near_chance() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(4);
        let mut ds = Dataset::new(vec![], vec![], 4);
        for _ in 0..800 {
            ds.push(
                vec![normal(&mut rng, 0.0, 1.0), normal(&mut rng, 0.0, 1.0)],
                rng.gen_range(0..4),
            );
        }
        let (train, val) = ds.split(0.7, &mut rng);
        let nb = GaussianNb::fit(&train);
        assert!(nb.accuracy(&val) < 0.45, "{}", nb.accuracy(&val));
    }

    /// Fig. 1's first increments: with one sample per class every
    /// residual is zero, the pooled variance sits on its floor, and the
    /// model memorises its training set — train accuracy 1 and a loss
    /// that prints as 0.0000 — while held-out accuracy stays far lower.
    #[test]
    fn one_sample_per_class_is_memorised() {
        let mut rng = StdRng::seed_from_u64(6);
        let train = ordinal_dataset(1, 27, &mut rng);
        let held_out = ordinal_dataset(10, 27, &mut rng);
        let nb = GaussianNb::fit(&train);
        assert!(nb.pooled_var.iter().all(|&v| v == 1e-12));
        assert_eq!(nb.accuracy(&train), 1.0);
        assert_eq!(format!("{:.4}", nb.mean_nll(&train)), "0.0000");
        assert!(nb.accuracy(&held_out) < 0.5, "{}", nb.accuracy(&held_out));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_training_panics() {
        GaussianNb::fit(&Dataset::new(vec![], vec![], 2));
    }

    #[test]
    fn columnar_roundtrip_predicts_identically() {
        let mut rng = StdRng::seed_from_u64(5);
        let ds = ordinal_dataset(8, 3, &mut rng);
        let nb = GaussianNb::fit(&ds);
        let back = GaussianNb::from_frame(nb.to_frame()).unwrap();
        assert_eq!(back, nb);
        for x in ds.samples.iter().take(20) {
            assert_eq!(back.predict(x), nb.predict(x));
        }
        // Disagreeing component dimensions must not decode.
        let mut frame = aegis_par::ColumnFrame::new();
        nb.means.encode_columns(&mut frame);
        frame.push_f64(vec![1.0; nb.dim + 1]);
        frame.push_f64(nb.log_prior.clone());
        frame.push_u64(vec![nb.dim as u64]);
        assert!(GaussianNb::from_frame(frame).is_err());
    }
}
