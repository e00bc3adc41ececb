//! Training-curve recording shared by the attack models.

use aegis_par::store::usize_from_u64;
use aegis_par::{ColumnFrame, ColumnSchema, Columnar, FrameError, FrameReader};
use serde::{Deserialize, Serialize};

/// Metrics recorded at the end of one training epoch — the series plotted
/// in Fig. 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index, starting at 0.
    pub epoch: usize,
    /// Mean training cross-entropy loss.
    pub train_loss: f64,
    /// Training accuracy in `[0, 1]`.
    pub train_acc: f64,
    /// Validation accuracy in `[0, 1]`.
    pub val_acc: f64,
}

/// A full training curve.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrainingCurve {
    /// Per-epoch statistics in order.
    pub epochs: Vec<EpochStats>,
}

impl TrainingCurve {
    /// Creates an empty curve.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one epoch.
    pub fn push(&mut self, stats: EpochStats) {
        self.epochs.push(stats);
    }

    /// Final validation accuracy, 0 if no epochs were recorded.
    pub fn final_val_acc(&self) -> f64 {
        self.epochs.last().map_or(0.0, |e| e.val_acc)
    }
}

/// A genuinely columnar curve: one column per metric, epochs aligned by
/// index.
impl Columnar for TrainingCurve {
    fn schema() -> ColumnSchema {
        ColumnSchema::new("attack/training-curve", 1)
    }

    fn encode_columns(&self, frame: &mut ColumnFrame) {
        frame.push_u64(self.epochs.iter().map(|e| e.epoch as u64).collect());
        frame.push_f64(self.epochs.iter().map(|e| e.train_loss).collect());
        frame.push_f64(self.epochs.iter().map(|e| e.train_acc).collect());
        frame.push_f64(self.epochs.iter().map(|e| e.val_acc).collect());
    }

    fn decode_columns(reader: &mut FrameReader) -> Result<Self, FrameError> {
        let epoch = reader.u64s()?;
        let train_loss = reader.f64s()?;
        let train_acc = reader.f64s()?;
        let val_acc = reader.f64s()?;
        if train_loss.len() != epoch.len()
            || train_acc.len() != epoch.len()
            || val_acc.len() != epoch.len()
        {
            return Err(FrameError::new("training-curve columns misaligned"));
        }
        let epochs = epoch
            .into_iter()
            .zip(train_loss)
            .zip(train_acc)
            .zip(val_acc)
            .map(|(((e, train_loss), train_acc), val_acc)| {
                Ok(EpochStats {
                    epoch: usize_from_u64(e, "curve epoch")?,
                    train_loss,
                    train_acc,
                    val_acc,
                })
            })
            .collect::<Result<_, FrameError>>()?;
        Ok(TrainingCurve { epochs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_on_empty_curve() {
        let c = TrainingCurve::new();
        assert_eq!(c.final_val_acc(), 0.0);
    }

    #[test]
    fn best_and_final_differ() {
        let mut c = TrainingCurve::new();
        for (i, v) in [0.5, 0.9, 0.8].iter().enumerate() {
            c.push(EpochStats {
                epoch: i,
                train_loss: 1.0,
                train_acc: *v,
                val_acc: *v,
            });
        }
        // The last epoch, not the best one.
        assert_eq!(c.final_val_acc(), 0.8);
    }

    #[test]
    fn columnar_roundtrip_preserves_every_epoch() {
        let mut c = TrainingCurve::new();
        for i in 0..5 {
            c.push(EpochStats {
                epoch: i,
                train_loss: 1.0 / (i + 1) as f64,
                train_acc: 0.1 * i as f64,
                val_acc: 0.09 * i as f64,
            });
        }
        assert_eq!(TrainingCurve::from_frame(c.to_frame()).unwrap(), c);
        assert_eq!(
            TrainingCurve::from_frame(TrainingCurve::new().to_frame()).unwrap(),
            TrainingCurve::new()
        );
    }
}
