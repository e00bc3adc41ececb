//! The [`SecretApp::sample_span`] contract, for every case study (the
//! `DnnZoo` override and the default alike): the span plan, advanced by
//! its `skip_ns`, runs like the full plan advanced to the span start,
//! through the whole span and at its end, and the generator ends where
//! `sample_plan` followed by the same `pick` leaves it.

use aegis_sev::{ActivitySource, PlanSource};
use aegis_workloads::{CryptoApp, DnnZoo, KeystrokeApp, SecretApp, WebsiteCatalog};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

fn app(ix: usize) -> Box<dyn SecretApp> {
    match ix {
        0 => Box::new(WebsiteCatalog::new(7)),
        1 => Box::new(KeystrokeApp::with_window(400_000_000)),
        2 => Box::new(DnnZoo::new(7)),
        _ => Box::new(CryptoApp::with_window(4, 400_000_000)),
    }
}

/// A span of the plan whose segments last `durations`: `start_kind`
/// puts the start anywhere, on a segment boundary, at zero, or so the
/// span ends at the window; `len_kind` makes it empty, short, long,
/// reach past the window, or end on a segment boundary.
fn span(
    durations: &[u64],
    window: u64,
    start_kind: u8,
    len_kind: u8,
    a: u64,
    b: u64,
) -> Range<u64> {
    // Every segment start, and the window's end.
    let bounds: Vec<u64> = std::iter::once(0)
        .chain(durations.iter().scan(0, |at, d| {
            *at += d;
            Some(*at)
        }))
        .collect();
    let len = match len_kind {
        0 | 4 => 0,
        1 => b % 5_000_000,
        2 => b % (window + 1),
        _ => window + b % window,
    };
    let start = match start_kind {
        0 => a % (window + 1),
        1 => bounds[a as usize % bounds.len()],
        2 => 0,
        _ => window.saturating_sub(len),
    };
    if len_kind < 4 {
        return start..start + len;
    }
    let later: Vec<u64> = bounds.into_iter().filter(|&at| at >= start).collect();
    start
        ..later
            .get(b as usize % later.len().max(1))
            .copied()
            .unwrap_or(start)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_span_plan_runs_like_the_full_plan(
        app_ix in 0usize..4,
        secret in 0usize..1 << 20,
        seed in 0u64..u64::MAX,
        start_kind in 0u8..4,
        len_kind in 0u8..5,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        steps in 0u64..u64::MAX,
    ) {
        let app = app(app_ix);
        let secret = secret % app.n_secrets();
        let window = app.window_ns();
        let full_plan = app.sample_plan(secret, &mut StdRng::seed_from_u64(seed));
        let durations: Vec<u64> = full_plan.segments.iter().map(|s| s.duration_ns).collect();
        let span = span(&durations, window, start_kind, len_kind, a, b);
        // `pick` draws too, so the generator's end position is checked
        // past it.
        let mut pick = |rng: &mut StdRng| {
            let _: u64 = rng.gen();
            span.clone()
        };

        let mut full_rng = StdRng::seed_from_u64(seed);
        let full_plan = app.sample_plan(secret, &mut full_rng);
        pick(&mut full_rng);
        let mut span_rng = StdRng::seed_from_u64(seed);
        let (plan, skip_ns) = app.sample_span(secret, &mut span_rng, &mut pick);
        prop_assert_eq!(&span_rng, &full_rng, "generator left elsewhere");
        prop_assert!(plan.segments.len() <= full_plan.segments.len());

        let mut full = PlanSource::new(full_plan);
        full.advance(span.start);
        let mut part = PlanSource::new(plan);
        part.advance(skip_ns);
        prop_assert_eq!(part.demand(), full.demand(), "at the span start");
        let mut steps = StdRng::seed_from_u64(steps);
        let mut executed = 0;
        while executed < span.end - span.start {
            // Tick-sized steps, and now and then one that crosses several
            // segments.
            let step = match steps.gen_range(0..8) {
                0 => steps.gen_range(0..50_000_000),
                _ => steps.gen_range(0..=100_000),
            }
            .min(span.end - span.start - executed);
            full.advance(step);
            part.advance(step);
            executed += step;
            prop_assert_eq!(part.demand(), full.demand(), "{} ns into the span", executed);
        }
    }
}
