//! The Laplace mechanism (Theorem 1: ε-DP).

use crate::buffer::{NoiseBuffer, MECHANISM_CAPACITY};
use crate::mechanism::NoiseMechanism;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The Laplace mechanism: `x̃[t] = x[t] + Lap(Δ/ε)` independently per
/// slice, which satisfies ε-differential privacy (the paper's Theorem 1).
///
/// The paper normalizes sequence data so the sensitivity `Δ_x[t]` is 1.
/// Draws come from a precomputed standard-Laplace ring buffer, mirroring
/// the userspace daemon's high-rate noise calculator.
///
/// # Example
///
/// ```
/// use aegis_dp::{LaplaceMechanism, NoiseMechanism};
///
/// let mut m = LaplaceMechanism::new(1.0, 42);
/// let r = m.noise_at(1, 0.5);
/// assert!(r.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct LaplaceMechanism {
    epsilon: f64,
    sensitivity: f64,
    buffer: NoiseBuffer,
}

impl LaplaceMechanism {
    /// Creates the mechanism with sensitivity 1 (normalized data).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon <= 0`.
    pub fn new(epsilon: f64, seed: u64) -> Self {
        Self::with_sensitivity(epsilon, 1.0, seed)
    }

    /// Creates the mechanism with an explicit sensitivity `Δ`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon <= 0` or `sensitivity < 0`.
    pub fn with_sensitivity(epsilon: f64, sensitivity: f64, seed: u64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        assert!(sensitivity >= 0.0, "sensitivity must be non-negative");
        let rng = StdRng::seed_from_u64(seed ^ 0x1a91_ace0);
        LaplaceMechanism {
            epsilon,
            sensitivity,
            buffer: NoiseBuffer::standard_laplace(MECHANISM_CAPACITY, rng),
        }
    }

    /// The Laplace scale `b = Δ/ε`.
    pub fn scale(&self) -> f64 {
        self.sensitivity / self.epsilon
    }
}

impl NoiseMechanism for LaplaceMechanism {
    fn name(&self) -> &'static str {
        "laplace"
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn noise_at(&mut self, _t: usize, _x_t: f64) -> f64 {
        self.buffer.next() * self.scale()
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_scale_tracks_epsilon() {
        for eps in [0.125, 1.0, 8.0] {
            let mut m = LaplaceMechanism::new(eps, 7);
            let n = 50_000;
            let mean_abs: f64 =
                (0..n).map(|t| m.noise_at(t + 1, 0.0).abs()).sum::<f64>() / n as f64;
            // E|Lap(1/ε)| = 1/ε.
            assert!(
                (mean_abs - 1.0 / eps).abs() / (1.0 / eps) < 0.1,
                "eps {eps}: {mean_abs}"
            );
        }
    }

    #[test]
    fn smaller_epsilon_means_more_noise() {
        let mut strong = LaplaceMechanism::new(0.125, 1);
        let mut weak = LaplaceMechanism::new(8.0, 1);
        let n = 20_000;
        let s: f64 = (0..n).map(|t| strong.noise_at(t, 0.0).abs()).sum();
        let w: f64 = (0..n).map(|t| weak.noise_at(t, 0.0).abs()).sum();
        assert!(s > 10.0 * w, "strong {s} weak {w}");
    }

    #[test]
    fn independent_of_t_and_x() {
        // Statistically: distributions at different t/x are the same
        // because Laplace noise is i.i.d. Use matched seeds.
        let mut a = LaplaceMechanism::new(1.0, 9);
        let mut b = LaplaceMechanism::new(1.0, 9);
        for t in 1..100 {
            assert_eq!(a.noise_at(t, 0.0), b.noise_at(9 * t, 1e6));
        }
    }

    #[test]
    fn sensitivity_scales_noise() {
        let mut m = LaplaceMechanism::with_sensitivity(1.0, 5.0, 7);
        assert_eq!(m.scale(), 5.0);
        let n = 50_000;
        let mean_abs: f64 = (0..n).map(|t| m.noise_at(t, 0.0).abs()).sum::<f64>() / n as f64;
        assert!((mean_abs - 5.0).abs() < 0.3, "{mean_abs}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_epsilon() {
        LaplaceMechanism::new(0.0, 1);
    }

    #[test]
    fn reset_is_noop() {
        let mut m = LaplaceMechanism::new(1.0, 1);
        let a = m.noise_at(1, 0.0);
        m.reset();
        let b = m.noise_at(2, 0.0);
        assert_ne!(a, b); // stream continues; no state to clear
    }
}
