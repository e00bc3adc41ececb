//! Precomputed noise ring buffer.
//!
//! The Event Obfuscator's userspace daemon must sustain high injection
//! rates, so it keeps a buffer of precomputed random draws (Section
//! VII-C). The buffer stores standard-Laplace variates; consumers scale
//! them by their mechanism's `b`.

use crate::mechanism::standard_laplace;
use rand::rngs::StdRng;

/// Ring capacity the mechanisms use: one fill covers 256 noise intervals
/// (51 ms at the obfuscator's 200 µs interval), so a short trace window
/// draws little more than it reads.
pub(crate) const MECHANISM_CAPACITY: usize = 256;

/// A refillable ring buffer of standard-Laplace draws.
#[derive(Debug, Clone)]
pub struct NoiseBuffer {
    buf: Vec<f64>,
    idx: usize,
    rng: StdRng,
}

impl NoiseBuffer {
    /// Creates a buffer of `capacity` `Lap(1)` draws. The first draw
    /// fills it, so a buffer that is never read costs no draws.
    ///
    /// The draw sequence does not depend on `capacity`: every fill
    /// continues the same `rng` stream.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn standard_laplace(capacity: usize, rng: StdRng) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        NoiseBuffer {
            buf: vec![0.0; capacity],
            idx: capacity,
            rng,
        }
    }

    /// Buffer capacity.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Takes the next draw, refilling the buffer transparently when
    /// exhausted (fresh randomness each refill — never replayed).
    // The buffer is not an iterator (draws are infinite and infallible),
    // so the natural name is kept despite the `Iterator::next` overlap.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> f64 {
        if self.idx == self.buf.len() {
            for slot in &mut self.buf {
                *slot = standard_laplace(&mut self.rng);
            }
            self.idx = 0;
        }
        let v = self.buf[self.idx];
        self.idx += 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn refill_produces_fresh_draws() {
        let rng = StdRng::seed_from_u64(1);
        let mut buf = NoiseBuffer::standard_laplace(8, rng);
        let first: Vec<f64> = (0..8).map(|_| buf.next()).collect();
        let second: Vec<f64> = (0..8).map(|_| buf.next()).collect();
        assert_ne!(first, second, "refill must not replay");
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<f64> = {
            let mut b = NoiseBuffer::standard_laplace(16, StdRng::seed_from_u64(2));
            (0..40).map(|_| b.next()).collect()
        };
        let b: Vec<f64> = {
            let mut b = NoiseBuffer::standard_laplace(16, StdRng::seed_from_u64(2));
            (0..40).map(|_| b.next()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn statistics_survive_refills() {
        let mut buf = NoiseBuffer::standard_laplace(64, StdRng::seed_from_u64(3));
        let n = 100_000;
        let mean_abs: f64 = (0..n).map(|_| buf.next().abs()).sum::<f64>() / n as f64;
        assert!((mean_abs - 1.0).abs() < 0.05, "{mean_abs}");
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        NoiseBuffer::standard_laplace(0, StdRng::seed_from_u64(1));
    }
}
