//! The [`SecretApp`] abstraction: an application executing one of a set of
//! customer-specified secrets.

use crate::plan::WorkloadPlan;
use rand::rngs::StdRng;
use std::ops::Range;

/// An application parameterized by a secret, as in the paper's attack
/// abstraction: the victim runs the app with secret `y ∈ Y`, and the HPC
/// leakage trace `x ∈ X` is what the attacker observes.
///
/// Implemented by the three case studies, [`WebsiteCatalog`] (45 sites),
/// [`KeystrokeApp`] (0–9 keystrokes) and [`DnnZoo`] (30 models), and by
/// the [`CryptoApp`] extension (key bits).
///
/// An implementation provides [`SecretApp::sample_plan`]; callers that
/// run only a span of a plan (the profiler's probes) sample through
/// [`SecretApp::sample_span`], which an app may override to build less.
///
/// [`WebsiteCatalog`]: crate::WebsiteCatalog
/// [`KeystrokeApp`]: crate::KeystrokeApp
/// [`DnnZoo`]: crate::DnnZoo
/// [`CryptoApp`]: crate::CryptoApp
pub trait SecretApp: Send + Sync {
    /// Human-readable application name.
    fn name(&self) -> &str;

    /// Number of distinct secrets.
    fn n_secrets(&self) -> usize;

    /// Human-readable name of one secret.
    ///
    /// # Panics
    ///
    /// May panic if `idx >= self.n_secrets()`.
    fn secret_name(&self, idx: usize) -> String;

    /// Length of one monitored execution window (3 s in the paper).
    fn window_ns(&self) -> u64;

    /// Samples one execution of the app with the given secret. Every call
    /// draws fresh within-class jitter from `rng`; plans span exactly
    /// [`SecretApp::window_ns`].
    fn sample_plan(&self, secret: usize, rng: &mut StdRng) -> WorkloadPlan;

    /// Samples one execution like [`SecretApp::sample_plan`] but returns
    /// only the part of it a caller runs. `pick` draws from `rng` where
    /// `sample_plan` leaves it and returns the span of plan time the
    /// caller will execute. A plan source (`aegis_sev::PlanSource`) over
    /// the returned plan, advanced by the returned `skip_ns`, answers
    /// `demand` exactly like the full plan's source advanced to the span
    /// start, through the whole span and at its end; past the end it may
    /// run dry early. `rng` is left where `sample_plan` followed by
    /// `pick` leaves it.
    ///
    /// The default samples the whole plan and skips to the span start.
    /// [`DnnZoo`](crate::DnnZoo), whose 3 s plans dwarf the spans the
    /// profiler runs, builds only the segments the span reaches.
    fn sample_span(
        &self,
        secret: usize,
        rng: &mut StdRng,
        pick: &mut dyn FnMut(&mut StdRng) -> Range<u64>,
    ) -> (WorkloadPlan, u64) {
        let plan = self.sample_plan(secret, rng);
        (plan, pick(rng).start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DnnZoo, KeystrokeApp, WebsiteCatalog};
    use rand::SeedableRng;

    fn check_app(app: &dyn SecretApp) {
        assert!(app.n_secrets() > 1);
        assert!(!app.name().is_empty());
        let mut rng = StdRng::seed_from_u64(1);
        for s in [0, app.n_secrets() - 1] {
            let plan = app.sample_plan(s, &mut rng);
            assert_eq!(plan.duration_ns(), app.window_ns(), "{} s={s}", app.name());
            assert!(!app.secret_name(s).is_empty());
        }
    }

    #[test]
    fn all_three_case_studies_satisfy_the_contract() {
        check_app(&WebsiteCatalog::new(7));
        check_app(&KeystrokeApp::new());
        check_app(&DnnZoo::new(7));
    }
}
