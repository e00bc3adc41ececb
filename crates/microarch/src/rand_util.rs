//! Small sampling helpers shared across the simulator crates.
//!
//! The offline crate set does not include `rand_distr`, and the paper's
//! Event Obfuscator in any case derives its noise "directly from the
//! uniform distribution" rather than library APIs (Section VII-C), so the
//! few distributions we need are implemented here from uniform draws.

use aegis_par::splitmix64;
use rand::Rng;

/// Samples a standard normal via the Box–Muller transform.
pub fn gauss<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling the half-open interval away from zero.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Maps one uniform 64-bit word to a standard-normal draw through the
/// inverse normal CDF (Acklam's rational approximation, |relative error|
/// < 1.15e-9).
///
/// This is the hot-path gaussian: unlike [`gauss`] it needs no generator
/// state and no transcendentals in the central 95% of the distribution,
/// which matters when the measurement plane draws noise per counter read
/// across millions of evaluations.
pub fn gauss_from_bits(bits: u64) -> f64 {
    // Top 53 bits, offset to the open interval (0, 1).
    let u = ((bits >> 11) as f64 + 0.5) * (1.0 / 9007199254740992.0);
    inv_norm_cdf(u)
}

/// Acklam's inverse normal CDF approximation on (0, 1).
fn inv_norm_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    }
}

/// Maps one uniform 64-bit word to a uniform draw on `[0, 1)` (top 53
/// bits, the standard double-precision construction).
///
/// The stateless counterpart of `Rng::gen::<f64>()`: feed it a
/// `derive_seed(base, site, instance)` word and the draw depends only on
/// the key, never on how many other draws happened first — the property
/// the batched core engine needs for lane order-independence.
pub fn unit_from_bits(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / 9007199254740992.0)
}

/// Samples a normal with the given mean and standard deviation.
///
/// # Panics
///
/// Panics if `std_dev` is negative.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(std_dev >= 0.0, "standard deviation must be non-negative");
    mean + std_dev * gauss(rng)
}

/// Samples a Poisson count with rate `lambda` (Knuth's method for small
/// rates, normal approximation above 64 where Knuth's product underflows).
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 64.0 {
        let x = normal(rng, lambda, lambda.sqrt());
        return x.max(0.0).round() as u64;
    }
    let limit = (-lambda).exp();
    let mut product: f64 = rng.gen();
    let mut count = 0u64;
    while product > limit {
        product *= rng.gen::<f64>();
        count += 1;
    }
    count
}

/// Keyed Poisson sampler: the stateless counterpart of [`poisson`], driven
/// by a SplitMix64 chain rooted at `seed` instead of a stateful generator.
/// Same branch structure (Knuth's product method for small rates, normal
/// approximation above 64), so the two stay distribution-identical.
pub fn poisson_from_seed(seed: u64, lambda: f64) -> u64 {
    poisson_from_seed_with_limit(seed, lambda, (-lambda).exp())
}

/// [`poisson_from_seed`] with Knuth's product limit `exp(-lambda)`
/// supplied by the caller, so a hot loop drawing at one fixed rate pays
/// for the exponential once (see [`PoissonLimit`]).
pub(crate) fn poisson_from_seed_with_limit(seed: u64, lambda: f64, limit: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    let mut state = splitmix64(seed);
    if lambda > 64.0 {
        let x = lambda + lambda.sqrt() * gauss_from_bits(state);
        return x.max(0.0).round() as u64;
    }
    let mut product = unit_from_bits(state);
    let mut count = 0u64;
    while product > limit {
        state = splitmix64(state);
        product *= unit_from_bits(state);
        count += 1;
    }
    count
}

/// Memo of Knuth's limit `exp(-λ)` for the last rate it was asked for.
/// A core's interrupt rate `λ = irq_rate_per_us × µs` is fixed per
/// (interference, step length), so every mix step of a scheduler tick
/// hits the memo and skips the exponential. Keyed on the exact bits of
/// `λ`, so a hit returns the very value a recomputation would.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PoissonLimit {
    lambda_bits: u64,
    limit: f64,
}

impl PoissonLimit {
    /// An empty memo (the sentinel key is a NaN no rate computes to).
    pub(crate) const fn new() -> Self {
        PoissonLimit {
            lambda_bits: u64::MAX,
            limit: 0.0,
        }
    }

    /// `exp(-lambda)`, recomputed only when `lambda` changes.
    pub(crate) fn get(&mut self, lambda: f64) -> f64 {
        if lambda.to_bits() != self.lambda_bits {
            self.lambda_bits = lambda.to_bits();
            self.limit = (-lambda).exp();
        }
        self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The keyed sampler as it was before the limit was hoisted: the
    /// reference the memoized path is pinned against.
    fn poisson_from_seed_uncached(seed: u64, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        let mut state = splitmix64(seed);
        if lambda > 64.0 {
            let x = lambda + lambda.sqrt() * gauss_from_bits(state);
            return x.max(0.0).round() as u64;
        }
        let limit = (-lambda).exp();
        let mut product = unit_from_bits(state);
        let mut count = 0u64;
        while product > limit {
            state = splitmix64(state);
            product *= unit_from_bits(state);
            count += 1;
        }
        count
    }

    #[test]
    fn cached_limit_draws_equal_uncached_draws() {
        // Rates from the host tick's (noisy and isolated interference ×
        // 100 µs) through Knuth's upper range and the normal branch, in
        // an order that forces the memo to switch keys.
        let lambdas = [
            0.025, 1.0e-4, 0.025, 0.0, -1.0, 0.5, 3.5, 3.5, 17.0, 63.9, 64.0, 64.5, 400.0, 0.025,
        ];
        let mut memo = PoissonLimit::new();
        for (i, &lambda) in lambdas.iter().enumerate() {
            for k in 0..2_000u64 {
                let seed = splitmix64(k.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64);
                assert_eq!(
                    poisson_from_seed_with_limit(seed, lambda, memo.get(lambda)),
                    poisson_from_seed_uncached(seed, lambda),
                    "lambda {lambda} seed {seed:#x}"
                );
                assert_eq!(
                    poisson_from_seed(seed, lambda),
                    poisson_from_seed_uncached(seed, lambda)
                );
            }
        }
    }

    #[test]
    fn gauss_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| gauss(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn gauss_from_bits_moments() {
        // Stride through bit space with a mixing multiplier so the inputs
        // exercise the full range, tails included.
        let n = 50_000u64;
        let (mut sum, mut sq) = (0.0, 0.0);
        for k in 0..n {
            let g = gauss_from_bits(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            sum += g;
            sq += g * g;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn inverse_cdf_round_trips_known_quantiles() {
        // Φ⁻¹ checks at textbook points, both central and tail branches.
        let cases = [
            (0.5, 0.0),
            (0.975, 1.959964),
            (0.025, -1.959964),
            (0.999, 3.090232),
            (0.001, -3.090232),
        ];
        for (p, z) in cases {
            assert!(
                (inv_norm_cdf(p) - z).abs() < 1e-4,
                "p={p}: {} vs {z}",
                inv_norm_cdf(p)
            );
        }
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 50_000;
        let mean = (0..n).map(|_| normal(&mut rng, 10.0, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn poisson_mean_small_lambda() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let mean = (0..n).map(|_| poisson(&mut rng, 3.5)).sum::<u64>() as f64 / n as f64;
        assert!((mean - 3.5).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_mean_large_lambda() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 5_000;
        let mean = (0..n).map(|_| poisson(&mut rng, 400.0)).sum::<u64>() as f64 / n as f64;
        assert!((mean - 400.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn unit_from_bits_covers_the_half_open_interval() {
        let n = 50_000u64;
        let mut lo: f64 = 1.0;
        let mut hi: f64 = 0.0;
        let mut sum = 0.0;
        for k in 0..n {
            let u = unit_from_bits(splitmix64(k));
            assert!((0.0..1.0).contains(&u), "u {u}");
            lo = lo.min(u);
            hi = hi.max(u);
            sum += u;
        }
        assert!(lo < 0.001 && hi > 0.999, "range [{lo}, {hi}]");
        assert!((sum / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn keyed_poisson_mean_small_lambda() {
        let n = 20_000u64;
        let mean = (0..n)
            .map(|k| poisson_from_seed(splitmix64(k), 3.5))
            .sum::<u64>() as f64
            / n as f64;
        assert!((mean - 3.5).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn keyed_poisson_mean_large_lambda() {
        let n = 5_000u64;
        let mean = (0..n)
            .map(|k| poisson_from_seed(splitmix64(k), 400.0))
            .sum::<u64>() as f64
            / n as f64;
        assert!((mean - 400.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn keyed_poisson_is_pure_and_zero_below_zero_rate() {
        assert_eq!(poisson_from_seed(9, 3.0), poisson_from_seed(9, 3.0));
        assert_eq!(poisson_from_seed(9, 0.0), 0);
        assert_eq!(poisson_from_seed(9, -1.0), 0);
    }

    #[test]
    fn poisson_zero_rate_is_zero() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(poisson(&mut rng, 0.0), 0);
        assert_eq!(poisson(&mut rng, -1.0), 0);
    }

    #[test]
    #[should_panic]
    fn normal_rejects_negative_std() {
        let mut rng = StdRng::seed_from_u64(6);
        normal(&mut rng, 0.0, -1.0);
    }
}
