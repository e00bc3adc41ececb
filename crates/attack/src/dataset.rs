//! Labeled trace datasets and feature extraction.

use crate::mat::Mat;
use aegis_par::store::usize_from_u64;
use aegis_par::{ColumnFrame, ColumnSchema, Columnar, FrameError, FrameReader};
use aegis_perf::Trace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

/// The length of the feature vector [`trace_features`] produces: per
/// event row, `ceil(samples / pool)` pooled values plus the two
/// aggregate (total, peak) features.
pub fn trace_feature_len(n_events: usize, samples_per_event: usize, pool: usize) -> usize {
    assert!(pool > 0, "pool must be positive");
    n_events * (samples_per_event.div_ceil(pool) + 2)
}

/// Turns a raw HPC trace into a fixed-length feature vector by average-
/// pooling each event row with the given window, then concatenating rows.
///
/// Pooling tames the 4×3000 dimensionality the paper's CNN consumes while
/// preserving the temporal envelope the attacks rely on.
///
/// # Panics
///
/// Panics if `pool == 0`.
pub fn trace_features(trace: &Trace, pool: usize) -> Vec<f64> {
    let mut out = Vec::new();
    trace_features_into(trace, pool, &mut out);
    out
}

/// [`trace_features`] into a caller-owned buffer: the buffer is cleared,
/// reserved to the exact pooled length, and filled — hot loops that
/// extract features per unit reuse one scratch vector instead of
/// allocating per trace.
///
/// # Panics
///
/// Panics if `pool == 0`.
pub fn trace_features_into(trace: &Trace, pool: usize, out: &mut Vec<f64>) {
    assert!(pool > 0, "pool must be positive");
    // Every row of a recorded trace has the same sample count, so the
    // pooled length is known up front — one exact reservation instead of
    // amortized growth per chunk.
    let samples = trace.data.first().map_or(0, Vec::len);
    out.clear();
    out.reserve(trace_feature_len(trace.data.len(), samples, pool));
    for row in &trace.data {
        for chunk in row.chunks(pool) {
            out.push(chunk.iter().sum::<f64>() / chunk.len() as f64);
        }
        // Aggregate statistics per event row: the whole-trace envelope the
        // paper's CNN pools up to, handed to the linear learner directly.
        let total: f64 = row.iter().sum();
        let peak = row.iter().copied().fold(0.0, f64::max);
        out.push(total);
        out.push(peak);
    }
    debug_assert_eq!(
        out.len(),
        trace_feature_len(trace.data.len(), samples, pool),
        "pooled length formula out of sync"
    );
}

/// A labeled dataset of feature vectors, stored as one contiguous
/// row-major buffer (`samples.row(i)` is sample `i`).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Dataset {
    /// Feature vectors, one matrix row per sample.
    pub samples: Mat,
    /// Class label per sample.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub n_classes: usize,
}

impl Dataset {
    /// Creates a dataset from nested rows.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch, rows are ragged, or a label is out of
    /// range.
    pub fn new(samples: Vec<Vec<f64>>, labels: Vec<usize>, n_classes: usize) -> Self {
        Dataset::from_mat(Mat::from_rows(&samples), labels, n_classes)
    }

    /// Creates a dataset from an already-flat sample matrix.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or a label is out of range.
    pub fn from_mat(samples: Mat, labels: Vec<usize>, n_classes: usize) -> Self {
        assert_eq!(samples.rows(), labels.len(), "samples/labels mismatch");
        assert!(labels.iter().all(|&l| l < n_classes), "label out of range");
        Dataset {
            samples,
            labels,
            n_classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.rows()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Feature dimensionality (0 when empty).
    pub fn dim(&self) -> usize {
        self.samples.cols()
    }

    /// Sample `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn sample(&self, i: usize) -> &[f64] {
        self.samples.row(i)
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `label >= self.n_classes` or the feature length differs
    /// from earlier samples.
    pub fn push(&mut self, features: Vec<f64>, label: usize) {
        self.push_slice(&features, label);
    }

    /// Adds one sample from a borrowed slice (no intermediate `Vec`).
    ///
    /// # Panics
    ///
    /// Panics if `label >= self.n_classes` or the feature length differs
    /// from earlier samples.
    pub fn push_slice(&mut self, features: &[f64], label: usize) {
        assert!(label < self.n_classes, "label out of range");
        self.samples.push_row(features);
        self.labels.push(label);
    }

    /// Copies the first `n` samples into a new dataset (training-curve
    /// prefixes).
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn head(&self, n: usize) -> Dataset {
        Dataset {
            samples: self.samples.head(n),
            labels: self.labels[..n].to_vec(),
            n_classes: self.n_classes,
        }
    }

    /// Splits into shuffled train/validation subsets; `train_frac` is the
    /// training share (the paper uses 70/30).
    pub fn split(&self, train_frac: f64, rng: &mut StdRng) -> (Dataset, Dataset) {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        let n_train = (self.len() as f64 * train_frac.clamp(0.0, 1.0)).round() as usize;
        let make = |ids: &[usize]| {
            let mut samples = Mat::with_capacity(ids.len(), self.dim());
            let mut labels = Vec::with_capacity(ids.len());
            for &i in ids {
                samples.push_row(self.samples.row(i));
                labels.push(self.labels[i]);
            }
            Dataset {
                samples,
                labels,
                n_classes: self.n_classes,
            }
        };
        (make(&idx[..n_train]), make(&idx[n_train..]))
    }
}

/// The sample matrix rides [`Mat`]'s page encoding; labels are one `u64`
/// column (they index classes, so the widening is exact); `n_classes`
/// trails as a one-element bookkeeping column. Decode re-validates the
/// [`Dataset::from_mat`] invariants as errors, not panics: a corrupt
/// artifact must read as a miss.
impl Columnar for Dataset {
    fn schema() -> ColumnSchema {
        ColumnSchema::new("attack/dataset", 1)
    }

    fn encode_columns(&self, frame: &mut ColumnFrame) {
        self.samples.encode_columns(frame);
        frame.push_u64(self.labels.iter().map(|&l| l as u64).collect());
        frame.push_u64(vec![self.n_classes as u64]);
    }

    fn decode_columns(reader: &mut FrameReader) -> Result<Self, FrameError> {
        let samples = Mat::decode_columns(reader)?;
        let labels: Vec<usize> = reader
            .u64s()?
            .into_iter()
            .map(|l| usize_from_u64(l, "dataset label"))
            .collect::<Result<_, _>>()?;
        let tail = reader.u64s()?;
        let [n_classes] = tail[..] else {
            return Err(FrameError::new("dataset class-count column malformed"));
        };
        let n_classes = usize_from_u64(n_classes, "dataset n_classes")?;
        if samples.rows() != labels.len() {
            return Err(FrameError::new("dataset samples/labels mismatch"));
        }
        if labels.iter().any(|&l| l >= n_classes) {
            return Err(FrameError::new("dataset label out of range"));
        }
        Ok(Dataset {
            samples,
            labels,
            n_classes,
        })
    }
}

/// Per-feature standardization parameters fitted on a training set and
/// reused verbatim on validation/attack data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Standardizer {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Standardizer {
    /// Fits per-feature mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(data: &Mat) -> Self {
        assert!(!data.is_empty(), "cannot standardize an empty set");
        let d = data.cols();
        let n = data.rows() as f64;
        let mut mean = vec![0.0; d];
        for row in data {
            for (m, x) in mean.iter_mut().zip(row) {
                *m += x / n;
            }
        }
        let mut std = vec![0.0; d];
        for row in data {
            for ((s, x), m) in std.iter_mut().zip(row).zip(&mean) {
                *s += (x - m).powi(2) / n;
            }
        }
        for s in &mut std {
            *s = s.sqrt().max(1e-9);
        }
        Standardizer { mean, std }
    }

    /// Standardizes one sample in place.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn apply(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.mean.len(), "dimension mismatch");
        for ((xi, m), s) in x.iter_mut().zip(&self.mean).zip(&self.std) {
            *xi = (*xi - m) / s;
        }
    }

    /// Standardizes a whole dataset in place.
    pub fn apply_dataset(&self, ds: &mut Dataset) {
        for row in &mut ds.samples {
            self.apply(row);
        }
    }
}

impl Columnar for Standardizer {
    fn schema() -> ColumnSchema {
        ColumnSchema::new("attack/standardizer", 1)
    }

    fn encode_columns(&self, frame: &mut ColumnFrame) {
        frame.push_f64(self.mean.clone());
        frame.push_f64(self.std.clone());
    }

    fn decode_columns(reader: &mut FrameReader) -> Result<Self, FrameError> {
        let mean = reader.f64s()?;
        let std = reader.f64s()?;
        if mean.len() != std.len() {
            return Err(FrameError::new("standardizer mean/std length mismatch"));
        }
        Ok(Standardizer { mean, std })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegis_microarch::EventId;
    use rand::SeedableRng;

    #[test]
    fn trace_features_pools_rows() {
        let mut t = Trace::new(vec![EventId(0), EventId(1)], 1);
        t.push_slice(&[1.0, 10.0]);
        t.push_slice(&[3.0, 20.0]);
        t.push_slice(&[5.0, 30.0]);
        let f = trace_features(&t, 2);
        assert_eq!(f, vec![2.0, 5.0, 9.0, 5.0, 15.0, 30.0, 60.0, 30.0]);
    }

    #[test]
    fn trace_feature_len_pins_the_output_length() {
        // 2 events × 3 samples pooled by 2 → ceil(3/2) + 2 = 4 per row.
        assert_eq!(trace_feature_len(2, 3, 2), 8);
        for (events, samples, pool) in [
            (1usize, 1usize, 1usize),
            (4, 3000, 20),
            (4, 301, 25),
            (3, 0, 7),
        ] {
            let mut t = Trace::new((0..events).map(|i| EventId(i as u32)).collect(), 1);
            for s in 0..samples {
                t.push_slice(&vec![s as f64; events]);
            }
            let f = trace_features(&t, pool);
            assert_eq!(
                f.len(),
                trace_feature_len(events, samples, pool),
                "events {events} samples {samples} pool {pool}"
            );
        }
    }

    #[test]
    fn split_preserves_all_samples() {
        let ds = Dataset::new(
            (0..100).map(|i| vec![i as f64]).collect(),
            (0..100).map(|i| i % 4).collect(),
            4,
        );
        let mut rng = StdRng::seed_from_u64(1);
        let (tr, va) = ds.split(0.7, &mut rng);
        assert_eq!(tr.len(), 70);
        assert_eq!(va.len(), 30);
        let mut all: Vec<f64> = tr.samples.iter().chain(&va.samples).map(|s| s[0]).collect();
        all.sort_by(f64::total_cmp);
        assert_eq!(all, (0..100).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn head_takes_a_prefix() {
        let ds = Dataset::new(
            (0..10).map(|i| vec![i as f64]).collect(),
            (0..10).map(|i| i % 2).collect(),
            2,
        );
        let h = ds.head(4);
        assert_eq!(h.len(), 4);
        assert_eq!(h.sample(3), &[3.0]);
        assert_eq!(h.labels, vec![0, 1, 0, 1]);
    }

    #[test]
    fn standardizer_zero_means_unit_std() {
        let data: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64, 100.0 + 2.0 * i as f64])
            .collect();
        let mat = Mat::from_rows(&data);
        let std = Standardizer::fit(&mat);
        let mut transformed = mat.clone();
        for row in &mut transformed {
            std.apply(row);
        }
        for d in 0..2 {
            let col: Vec<f64> = transformed.iter().map(|r| r[d]).collect();
            assert!(crate::stats::mean(&col).abs() < 1e-9);
            assert!((crate::stats::std_dev(&col) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn standardizer_is_reusable_on_new_data() {
        let data = Mat::from_rows(&[vec![0.0], vec![2.0]]);
        let std = Standardizer::fit(&data);
        let mut x = vec![4.0];
        std.apply(&mut x);
        assert!((x[0] - 3.0).abs() < 1e-9); // (4-1)/1
    }

    #[test]
    fn dataset_and_standardizer_columnar_roundtrip() {
        let ds = Dataset::new(
            (0..6).map(|i| vec![i as f64, -(i as f64) / 3.0]).collect(),
            (0..6).map(|i| i % 3).collect(),
            3,
        );
        assert_eq!(Dataset::from_frame(ds.to_frame()).unwrap(), ds);

        let std = Standardizer::fit(&ds.samples);
        assert_eq!(Standardizer::from_frame(std.to_frame()).unwrap(), std);

        // Labels beyond the decoded class count are an error, not data.
        let mut frame = ColumnFrame::new();
        ds.samples.encode_columns(&mut frame);
        frame.push_u64(vec![0, 1, 2, 0, 1, 9]);
        frame.push_u64(vec![3]);
        assert!(Dataset::from_frame(frame).is_err());
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn push_validates_label() {
        let mut ds = Dataset::new(vec![], vec![], 3);
        ds.push(vec![1.0], 3);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn new_validates_lengths() {
        Dataset::new(vec![vec![1.0]], vec![], 1);
    }
}
