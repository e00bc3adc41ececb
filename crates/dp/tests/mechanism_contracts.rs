//! Contract tests over the public mechanism API: trait-object behaviour,
//! statistical comparisons between the mechanisms, and the interaction
//! with clipping.

use aegis_dp::{
    ClipBound, DStarMechanism, LaplaceMechanism, NoiseBuffer, NoiseMechanism, PrivacyBudget,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn boxed_mechanisms_forward_everything() {
    let mut boxed: Box<dyn NoiseMechanism> = Box::new(LaplaceMechanism::new(2.0, 5));
    assert_eq!(boxed.name(), "laplace");
    assert_eq!(boxed.epsilon(), 2.0);
    let r = boxed.noise_at(1, 0.0);
    assert!(r.is_finite());
    boxed.reset();

    let mut boxed: Box<dyn NoiseMechanism> = Box::new(DStarMechanism::new(2.0, 5));
    assert_eq!(boxed.name(), "dstar");
    let r1 = boxed.noise_at(1, 1.0);
    let r2 = boxed.noise_at(2, 1.5);
    assert!(r1.is_finite() && r2.is_finite());
    boxed.reset();
    // After reset the series restarts at t = 1 without panicking.
    let _ = boxed.noise_at(1, 0.0);
}

#[test]
fn clipped_laplace_mass_at_zero_is_half() {
    // Clipping [0, B] sends every negative draw to 0 — P(0) ≈ 1/2,
    // the property that motivates sub-sample injection intervals.
    let clip = ClipBound::injection(100.0);
    let mut m = LaplaceMechanism::new(1.0, 9);
    let n = 50_000;
    let zeros = (0..n)
        .filter(|&t| clip.clip(m.noise_at(t + 1, 0.0)) == 0.0)
        .count();
    let frac = zeros as f64 / n as f64;
    assert!((frac - 0.5).abs() < 0.02, "zero mass {frac}");
}

#[test]
fn expected_clipped_noise_scales_inversely_with_epsilon() {
    let clip = ClipBound::injection(1e9);
    let mean_noise = |eps: f64| {
        let mut m = LaplaceMechanism::new(eps, 3);
        let n = 100_000;
        (0..n)
            .map(|t| clip.clip(m.noise_at(t + 1, 0.0)))
            .sum::<f64>()
            / n as f64
    };
    // E[max(0, Lap(1/ε))] = 1/(2ε).
    for eps in [0.25, 1.0, 4.0] {
        let m = mean_noise(eps);
        let expected = 1.0 / (2.0 * eps);
        assert!(
            (m - expected).abs() / expected < 0.05,
            "eps {eps}: mean {m} vs {expected}"
        );
    }
}

#[test]
fn dstar_total_noise_exceeds_laplace_over_a_window() {
    // Fig. 10's cost ordering comes from this property.
    let windows = 50;
    let len = 500;
    let mut lap_total = 0.0;
    let mut ds_total = 0.0;
    for seed in 0..windows {
        let mut lap = LaplaceMechanism::new(1.0, seed);
        let mut ds = DStarMechanism::new(1.0, seed);
        for t in 1..=len {
            lap_total += lap.noise_at(t, 0.0).max(0.0);
            ds_total += ds.noise_at(t, 0.0).max(0.0);
        }
    }
    assert!(
        ds_total > 1.5 * lap_total,
        "dstar {ds_total} vs laplace {lap_total}"
    );
}

#[test]
fn noise_buffers_from_the_same_seed_agree_across_capacities() {
    // Capacity is an implementation detail of the ring, not of the
    // stream: every fill continues the same RNG, so any capacity yields
    // the same draws. Capacities that do and do not divide the read
    // count cross refill boundaries at different positions.
    let draws = |cap: usize| -> Vec<f64> {
        let mut b = NoiseBuffer::standard_laplace(cap, StdRng::seed_from_u64(4));
        (0..1000).map(|_| b.next()).collect()
    };
    let reference = draws(4096);
    for cap in [1, 7, 64, 256, 999, 1000, 1001] {
        assert_eq!(draws(cap), reference, "capacity {cap}");
    }
}

#[test]
fn budget_composes_across_mechanism_deployments() {
    // A customer running Laplace at ε=0.5 twice and d* at ε=1 spends 2ε
    // for d* (Theorem 2's (d*, 2ε)).
    let mut budget = PrivacyBudget::new(4.0);
    let lap = LaplaceMechanism::new(0.5, 1);
    budget.charge(lap.epsilon()).unwrap();
    budget.charge(lap.epsilon()).unwrap();
    let ds = DStarMechanism::new(1.0, 1);
    budget.charge(2.0 * ds.epsilon()).unwrap();
    assert!((budget.remaining() - 1.0).abs() < 1e-12);
    assert!(budget.charge(1.5).is_err());
}
