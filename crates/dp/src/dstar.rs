//! The d* mechanism (Theorem 2: (d*, 2ε)-privacy).
//!
//! Extended from Chan et al.'s binary-tree continual release: the noisy
//! value at `t` is anchored to the noisy value at `G(t)` plus the true
//! increment, with fresh Laplace noise whose scale grows as `⌊log₂ t⌋/ε`
//! off the power-of-two spine:
//!
//! ```text
//! x̃[t] = x̃[G(t)] + (x[t] − x[G(t)]) + r_t
//! G(t) = 0         if t = 1
//!      = t/2       if t = D(t) ≥ 2      (t is a power of two)
//!      = t − D(t)  if t > D(t)
//! r_t  ~ Lap(1/ε)            if t = D(t)
//!      ~ Lap(⌊log₂ t⌋ / ε)   otherwise
//! ```
//!
//! where `D(t)` is the largest power of two dividing `t`. The correlated
//! structure yields better privacy for time series under the `d*` metric
//! at equal ε — which is why Fig. 9 shows d* dominating Laplace.

use crate::buffer::{NoiseBuffer, MECHANISM_CAPACITY};
use crate::mechanism::NoiseMechanism;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Largest power of two dividing `t` (`D(t)`); `t` must be ≥ 1.
///
/// # Panics
///
/// Panics if `t == 0`.
pub fn largest_dividing_pow2(t: usize) -> usize {
    assert!(t >= 1, "D(t) requires t >= 1");
    1 << t.trailing_zeros()
}

/// The anchor index `G(t)` of the d* recursion.
///
/// # Panics
///
/// Panics if `t == 0`.
pub fn anchor(t: usize) -> usize {
    assert!(t >= 1, "G(t) requires t >= 1");
    let d = largest_dividing_pow2(t);
    if t == 1 {
        0
    } else if t == d {
        t / 2
    } else {
        t - d
    }
}

/// The d* mechanism. Stateful: it remembers the raw and noisy values of
/// every anchor position of the current trace; call
/// [`NoiseMechanism::reset`] between traces.
///
/// # Example
///
/// ```
/// use aegis_dp::{DStarMechanism, NoiseMechanism};
///
/// let mut m = DStarMechanism::new(1.0, 42);
/// let r1 = m.noise_at(1, 10.0);
/// let r2 = m.noise_at(2, 12.0);
/// assert!(r1.is_finite() && r2.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct DStarMechanism {
    epsilon: f64,
    buffer: NoiseBuffer,
    /// `(x[t], x̃[t])` per seen `t`; index 0 is the virtual origin (0, 0).
    history: Vec<(f64, f64)>,
}

impl DStarMechanism {
    /// Creates the mechanism.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon <= 0`.
    pub fn new(epsilon: f64, seed: u64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        let rng = StdRng::seed_from_u64(seed ^ 0xd57a_0000);
        DStarMechanism {
            epsilon,
            buffer: NoiseBuffer::standard_laplace(MECHANISM_CAPACITY, rng),
            history: vec![(0.0, 0.0)],
        }
    }

    fn r_scale(&self, t: usize) -> f64 {
        if t == largest_dividing_pow2(t) {
            1.0 / self.epsilon
        } else {
            let log = (t as f64).log2().floor();
            log / self.epsilon
        }
    }
}

impl NoiseMechanism for DStarMechanism {
    fn name(&self) -> &'static str {
        "dstar"
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// # Panics
    ///
    /// Panics if slices are fed out of order (`t` must be
    /// `history.len()`, i.e. 1, 2, 3, ... consecutively).
    fn noise_at(&mut self, t: usize, x_t: f64) -> f64 {
        assert_eq!(
            t,
            self.history.len(),
            "d* requires consecutive time slices starting at 1"
        );
        let g = anchor(t);
        let (x_g, noisy_g) = self.history[g];
        let r_t = self.buffer.next() * self.r_scale(t);
        let noisy_t = noisy_g + (x_t - x_g) + r_t;
        self.history.push((x_t, noisy_t));
        noisy_t - x_t
    }

    fn reset(&mut self) {
        self.history.clear();
        self.history.push((0.0, 0.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::d_star_distance;

    #[test]
    fn d_of_t_matches_definition() {
        assert_eq!(largest_dividing_pow2(1), 1);
        assert_eq!(largest_dividing_pow2(2), 2);
        assert_eq!(largest_dividing_pow2(3), 1);
        assert_eq!(largest_dividing_pow2(12), 4);
        assert_eq!(largest_dividing_pow2(64), 64);
        assert_eq!(largest_dividing_pow2(96), 32);
    }

    #[test]
    fn anchors_match_eq4() {
        assert_eq!(anchor(1), 0);
        assert_eq!(anchor(2), 1);
        assert_eq!(anchor(4), 2);
        assert_eq!(anchor(8), 4);
        assert_eq!(anchor(3), 2); // 3 - D(3)=1
        assert_eq!(anchor(6), 4); // 6 - D(6)=2
        assert_eq!(anchor(7), 6);
        assert_eq!(anchor(12), 8); // 12 - 4
    }

    #[test]
    fn anchor_chain_reaches_origin_quickly() {
        for t in 1..=4096usize {
            let mut cur = t;
            let mut hops = 0;
            while cur != 0 {
                cur = anchor(cur);
                hops += 1;
                assert!(hops <= 2 * 13, "t={t} too many hops");
            }
        }
    }

    #[test]
    fn noise_grows_with_log_t_off_spine() {
        let m = DStarMechanism::new(1.0, 1);
        assert_eq!(m.r_scale(1), 1.0);
        assert_eq!(m.r_scale(1024), 1.0); // power of two → Lap(1/ε)
        assert_eq!(m.r_scale(3), 1.0); // ⌊log₂ 3⌋ = 1
        assert_eq!(m.r_scale(1000), 9.0); // ⌊log₂ 1000⌋ = 9
    }

    #[test]
    fn per_slice_noise_is_larger_than_laplace_at_equal_epsilon() {
        use crate::laplace::LaplaceMechanism;
        let eps = 1.0;
        let trials = 200;
        let len = 512;
        let mut d_total = 0.0;
        let mut l_total = 0.0;
        for seed in 0..trials {
            let mut d = DStarMechanism::new(eps, seed);
            let mut l = LaplaceMechanism::new(eps, seed);
            for t in 1..=len {
                d_total += d.noise_at(t, 0.0).abs();
                l_total += l.noise_at(t, 0.0).abs();
            }
        }
        assert!(
            d_total > 2.0 * l_total,
            "d* {d_total} laplace {l_total}: d* must obfuscate harder at equal ε"
        );
    }

    #[test]
    fn noisy_series_is_anchored_not_drifting() {
        // Because each slice anchors to G(t), the cumulative deviation of
        // x̃ from x stays O(log t · 1/ε) rather than O(√t) random walk.
        let mut m = DStarMechanism::new(4.0, 3);
        let mut max_dev = 0.0f64;
        for t in 1..=4096 {
            let dev = m.noise_at(t, 0.0).abs();
            max_dev = max_dev.max(dev);
        }
        // Rough bound: sum over ≤ 2·log₂(t) anchors of Lap(log/ε) tails.
        assert!(max_dev < 120.0, "max deviation {max_dev}");
    }

    #[test]
    fn out_of_order_feeding_panics() {
        let mut m = DStarMechanism::new(1.0, 1);
        m.noise_at(1, 0.0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.noise_at(3, 0.0)));
        assert!(r.is_err());
    }

    #[test]
    fn reset_restarts_the_trace() {
        let mut m = DStarMechanism::new(1.0, 1);
        m.noise_at(1, 0.0);
        m.noise_at(2, 0.0);
        m.reset();
        let r = m.noise_at(1, 0.0); // t=1 accepted again
        assert!(r.is_finite());
    }

    #[test]
    fn d_star_privacy_smoke_check() {
        // Two series at small d* distance should produce statistically
        // close noisy outputs: compare mean absolute difference of the
        // noisy increments against the noise magnitude.
        let eps = 0.5;
        let x: Vec<f64> = (0..64).map(|t| (t as f64 * 0.3).sin()).collect();
        let mut y = x.clone();
        y[10] += 0.5; // d* distance = 1.0
        assert!((d_star_distance(&x, &y) - 1.0).abs() < 1e-9);
        let mut diffs = 0.0;
        let trials = 300;
        for seed in 0..trials {
            let mut mx = DStarMechanism::new(eps, seed);
            let mut my = DStarMechanism::new(eps, seed + 10_000);
            let nx: Vec<f64> = x
                .iter()
                .enumerate()
                .map(|(i, &v)| v + mx.noise_at(i + 1, v))
                .collect();
            let ny: Vec<f64> = y
                .iter()
                .enumerate()
                .map(|(i, &v)| v + my.noise_at(i + 1, v))
                .collect();
            diffs += (nx[10] - ny[10]).abs() / trials as f64;
        }
        // The 0.5 secret-dependent difference is dwarfed by ~(1/eps)-scale noise.
        assert!(
            diffs > 1.0,
            "noisy outputs should be noise-dominated: {diffs}"
        );
    }
}
